"""Benchmark harness: calibration, workloads, closed-loop driver, reports."""

from .calibration import (
    DISK_PRESETS,
    EC2_SLOWDOWN,
    FRONTEND_OP_SECONDS,
    FRONTEND_WORKERS_PER_SITE,
    bdb_costs,
    redis_costs,
    walter_costs,
)
from .harness import run_closed_loop, run_closed_loop_raw
from .metrics import BenchResult, LatencyRecorder
from .reporting import (
    format_cdf,
    format_metric_histogram,
    format_site_observability,
    format_table,
    paper_comparison,
)
from .workloads import (
    KeySpace,
    OBJECT_SIZE,
    PAYLOAD,
    cset_tx_factory,
    mixed_tx_factory,
    populate,
    read_tx_factory,
    slow_commit_tx_factory,
    write_tx_factory,
)

__all__ = [
    "BenchResult",
    "DISK_PRESETS",
    "EC2_SLOWDOWN",
    "FRONTEND_OP_SECONDS",
    "FRONTEND_WORKERS_PER_SITE",
    "KeySpace",
    "LatencyRecorder",
    "OBJECT_SIZE",
    "PAYLOAD",
    "bdb_costs",
    "cset_tx_factory",
    "format_cdf",
    "format_metric_histogram",
    "format_site_observability",
    "format_table",
    "mixed_tx_factory",
    "paper_comparison",
    "populate",
    "read_tx_factory",
    "redis_costs",
    "run_closed_loop",
    "run_closed_loop_raw",
    "slow_commit_tx_factory",
    "walter_costs",
    "write_tx_factory",
]
