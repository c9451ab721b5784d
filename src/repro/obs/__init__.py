"""Sim-time observability: metrics registry and transaction tracing.

One :class:`Observability` instance is shared by every component of a
deployment (servers, network, storage, benchmarks).  The metrics
registry is always on -- counters and gauges are cheap attribute bumps.
Transaction tracing is opt-in (``Deployment(tracing=True)``); when off,
components hold ``tracer = None`` and each hook costs one ``None`` check.

All timestamps come from the simulation kernel, so two runs with the
same seed produce byte-identical trace dumps and metric snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .export import dump_jsonl, format_timeline, trace_events_jsonl
from .metrics import (
    Counter,
    CounterView,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)
from .trace import (
    ABORT,
    CLIENT_COMMIT_REPLY,
    CLIENT_COMMIT_SEND,
    COMMIT_CPU,
    COMMIT_LOCK_ACQUIRED,
    COMMIT_RPC_BEGIN,
    COMMIT_RPC_END,
    COMMIT_VOTES,
    DISKLOG_FLUSH,
    DS_DURABLE,
    EXECUTE,
    FAST_COMMIT,
    FAULT,
    GLOBALLY_VISIBLE,
    PROPAGATE_SEND,
    REMOTE_APPLY,
    REMOTE_COMMIT,
    RPC_RECV,
    SLOW_COMMIT_COMMIT,
    SLOW_COMMIT_PREPARE,
    SpanEvent,
    TERMINAL_EVENTS,
    Tracer,
    TxTrace,
    WAL_FLUSH,
)
from .artifact import (
    collect_run,
    diff_artifacts,
    diff_outcomes,
    format_diff,
    load_artifact,
    summarize_artifact,
    write_artifact,
    write_run_artifact,
)
from .critical_path import (
    BudgetTable,
    TxBudget,
    aggregate_budgets,
    compute_budget,
    format_budget_table,
)
from .monitor import Alert, OnlineMonitor
from .profile import AccessProfiler


class Observability:
    """The per-deployment bundle: one registry, optionally one tracer.

    ``tracing=True`` records lifecycle spans, commit-path milestones and
    causal parent edges (the input to critical-path attribution);
    ``"deep"`` is an older spelling of ``True``.
    """

    def __init__(self, tracing=False, trace_capacity: int = 8192):
        if tracing not in (False, True, "deep"):
            raise ValueError("tracing must be True or False, got %r" % (tracing,))
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = Tracer(trace_capacity) if tracing else None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return self.registry.snapshot()


__all__ = [
    "ABORT",
    "AccessProfiler",
    "Alert",
    "BudgetTable",
    "CLIENT_COMMIT_REPLY",
    "CLIENT_COMMIT_SEND",
    "COMMIT_CPU",
    "COMMIT_LOCK_ACQUIRED",
    "COMMIT_RPC_BEGIN",
    "COMMIT_RPC_END",
    "COMMIT_VOTES",
    "Counter",
    "CounterView",
    "DEFAULT_BUCKETS",
    "DISKLOG_FLUSH",
    "DS_DURABLE",
    "EXECUTE",
    "FAST_COMMIT",
    "FAULT",
    "GLOBALLY_VISIBLE",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "OnlineMonitor",
    "PROPAGATE_SEND",
    "REMOTE_APPLY",
    "REMOTE_COMMIT",
    "RPC_RECV",
    "SLOW_COMMIT_COMMIT",
    "SLOW_COMMIT_PREPARE",
    "SpanEvent",
    "TERMINAL_EVENTS",
    "Tracer",
    "TxBudget",
    "TxTrace",
    "WAL_FLUSH",
    "aggregate_budgets",
    "collect_run",
    "compute_budget",
    "diff_artifacts",
    "diff_outcomes",
    "dump_jsonl",
    "format_budget_table",
    "format_diff",
    "load_artifact",
    "summarize_artifact",
    "write_artifact",
    "write_run_artifact",
    "format_timeline",
    "log_buckets",
    "trace_events_jsonl",
]
