"""Deterministic chaos harness: seeded fault schedules + model-checked
PSI under failures.

Quickstart::

    PYTHONPATH=src python -m repro.chaos --seed 1 --runs 10

Programmatic::

    from repro.chaos import ChaosConfig, run_chaos
    result = run_chaos(ChaosConfig(seed=1))
    assert result.passed, result.verdict_json()
    zoo = run_chaos(ChaosConfig(seed=1, protocol="consus"))

See DESIGN.md §"Chaos testing" for the schedule DSL, the oracles, and
the shrink/artifact workflow.
"""

from .generator import generate_schedule
from .harness import (
    ChaosConfig,
    ChaosResult,
    ReproArtifact,
    run_chaos,
)
from .injector import FaultInjector
from .oracles import check_convergence, check_durability
from .schedule import FAULT_CATALOG, FaultEvent, Schedule, ScheduleError, canonical_json
from .shrinker import ShrinkReport, shrink_schedule

__all__ = [
    "FAULT_CATALOG",
    "ChaosConfig",
    "ChaosResult",
    "FaultEvent",
    "FaultInjector",
    "ReproArtifact",
    "Schedule",
    "ScheduleError",
    "ShrinkReport",
    "canonical_json",
    "check_convergence",
    "check_durability",
    "generate_schedule",
    "run_chaos",
    "shrink_schedule",
]
