"""The chaos run loop: workload + fault schedule + repair + oracles.

One :func:`run_chaos` call is one experiment, against the full Walter
:class:`~repro.deployment.Deployment` or, when ``config.protocol`` names
one, a protocol-zoo backend (:class:`~repro.chaos.protocols.ZooRun`):

1. build the target from the config seed, plus its randomized client
   workload;
2. let the :class:`~repro.chaos.injector.FaultInjector` walk the
   schedule (generated from the same seed unless one is supplied) while
   the clients run;
3. **repair**: once the schedule is exhausted, heal all partitions,
   cancel loss bursts and, on the deployment, replace any crashed
   servers, re-integrate any still-removed sites, and wait for the
   catch-ups those started -- the oracles judge the *converged* system,
   not the mid-outage one;
4. **judge**: the deployment feeds the recorded trace to the PSI checker
   (in dual-world mode, excusing §4.4-abandoned transactions) and runs
   the convergence, durability, and quiescence oracles; a zoo backend
   checks its witness at its own level and every weaker one.

Everything is a deterministic function of ``(config, schedule)``: two
runs with the same seed produce byte-identical schedules, verdicts, and
failure artifacts.
"""

from __future__ import annotations

import re
import traceback
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from ..deployment import Deployment
from ..obs import OnlineMonitor
from ..sim import AllOf, gc_paused
from ..spec.checker import Violation, check_trace
from ..storage import FLUSH_MEMORY
from .generator import generate_schedule
from .injector import FaultInjector
from .oracles import check_convergence, check_durability, check_quiescence
from .protocols import ZooRun
from .schedule import FAULT_CATALOG, ZOO_FAULTS, Schedule, canonical_json
from .workload import make_objects, start_workload

#: Extra sim-time allowed past the horizon for repair + draining client
#: timeouts before a run is declared non-live.  Client op timeouts are a
#: few seconds (the SI baseline's cross-site RPCs 30 s); removal/re-
#: integration a few RPC rounds each.
REPAIR_GRACE = 300.0

#: Settings only the Walter deployment reads; a zoo config must leave
#: them at their defaults.  (``batching`` selects nothing either way.)
WALTER_ONLY = ("n_csets", "flush_latency", "bug", "shards", "replication")


@dataclass(frozen=True)
class ChaosConfig:
    """Everything that determines a chaos run (besides an explicit
    schedule override).  Frozen: configs are dict keys in test corpora."""

    seed: int
    n_sites: int = 3
    horizon: float = 8.0
    fault_budget: int = 6
    clients_per_site: int = 2
    txs_per_client: int = 10
    n_objects: int = 6
    n_csets: int = 2
    flush_latency: float = FLUSH_MEMORY
    settle: float = 6.0
    #: Deliberate-bug name (see RecoveryMixin.CHAOS_BUGS); self-test only.
    bug: Optional[str] = None
    #: Intra-site keyspace shards per base site (DESIGN.md §13).  The
    #: deployment then runs ``n_sites * shards`` logical sites, and
    #: workload/faults target the logical ids.  Defaults keep stored
    #: corpus configs (which predate sharding) loading unchanged.
    shards: int = 1
    #: Per-shard replication factor (base sites per shard group); None =
    #: full replication.
    replication: Optional[int] = None
    #: Selects nothing: the batched wire (DESIGN.md §14) is the only
    #: propagation path, so runs with and without this flag are the same
    #: run.  Kept so stored artifacts and callers that spell it out
    #: (``batching=True``) keep loading.
    batching: bool = False
    #: Registry backend to run (``walter``, ``si``, ``nmsi``, ``consus``)
    #: instead of the full Walter deployment; see :mod:`.protocols`.
    protocol: Optional[str] = None

    def __post_init__(self):
        if self.protocol is None:
            return
        from ..protocols.registry import PROTOCOL_NAMES

        if self.protocol not in PROTOCOL_NAMES:
            raise ValueError(
                "protocol %r is not one of %s" % (self.protocol, ", ".join(PROTOCOL_NAMES))
            )
        for f in fields(self):
            if f.name in WALTER_ONLY and getattr(self, f.name) != f.default:
                raise ValueError(
                    "%s=%r is a Walter deployment setting; protocol=%r cannot use it"
                    % (f.name, getattr(self, f.name), self.protocol)
                )
        if self.n_sites < 2:
            raise ValueError("a zoo run's faults are partitions, which need two sites")

    @property
    def faults(self):
        """The faults this run can take: the whole catalog on the
        deployment, :data:`~repro.chaos.schedule.ZOO_FAULTS` on a zoo
        backend."""
        return frozenset(FAULT_CATALOG) if self.protocol is None else ZOO_FAULTS

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "ChaosConfig":
        return cls(**obj)


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    config: ChaosConfig
    schedule: Schedule
    violations: List[Violation] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)
    applied_faults: List[str] = field(default_factory=list)
    injection_errors: List[Tuple[str, str]] = field(default_factory=list)
    end_time: float = 0.0
    world: Any = None  # the Deployment or zoo backend, for post-mortem inspection
    #: The OnlineMonitor when the run was monitored (run_chaos
    #: ``monitor=True``); excluded from the verdict so monitored and
    #: unmonitored runs stay byte-identical.
    monitor: Any = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def verdict_obj(self) -> Dict[str, Any]:
        """Canonical, JSON-able verdict -- byte-identical across runs of
        the same (config, schedule)."""
        return {
            "passed": self.passed,
            "violations": [
                {"property": v.property_name, "detail": v.detail}
                for v in self.violations
            ],
            "outcomes": dict(sorted(self.outcomes.items())),
            "applied_faults": list(self.applied_faults),
            "injection_errors": [list(e) for e in self.injection_errors],
            "end_time": round(self.end_time, 9),
        }

    def verdict_json(self) -> str:
        return canonical_json(self.verdict_obj())

    def artifact(self) -> "ReproArtifact":
        return ReproArtifact(
            config=self.config, schedule=self.schedule, verdict=self.verdict_obj()
        )


@dataclass
class ReproArtifact:
    """A self-contained reproduction recipe: config + schedule + the
    verdict they produced.  Check the JSON into ``tests/chaos/seeds/``
    and the replay test will keep the bug (or its fix) pinned."""

    config: ChaosConfig
    schedule: Schedule
    verdict: Dict[str, Any]

    def to_json(self) -> str:
        return canonical_json(
            {
                "config": self.config.as_dict(),
                "schedule": self.schedule.to_obj(),
                "verdict": self.verdict,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproArtifact":
        import json

        obj = json.loads(text)
        return cls(
            config=ChaosConfig.from_dict(obj["config"]),
            schedule=Schedule.from_obj(obj["schedule"]),
            verdict=obj["verdict"],
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ReproArtifact":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def replay(self) -> ChaosResult:
        """Re-run the recorded config + schedule; returns the fresh result
        (compare its ``verdict_obj()`` with the stored one)."""
        return run_chaos(self.config, schedule=self.schedule)


def run_chaos(
    config: ChaosConfig,
    schedule: Optional[Schedule] = None,
    monitor: bool = False,
) -> "ChaosResult":
    """Run one chaos experiment; see the module docstring.

    ``monitor=True`` attaches an :class:`~repro.obs.OnlineMonitor` (and
    the span tracing that feeds it) to the Walter deployment.  The
    monitor is passive -- it creates no kernel events -- so a monitored
    run produces the byte-identical verdict of an unmonitored one; its
    alerts are returned on ``ChaosResult.monitor``.

    The whole experiment -- world construction, the fault run, repair,
    settling, and the oracle checks -- executes with the cyclic GC paused
    (:func:`repro.sim.gc_paused`): the run/spawn/run structure would
    otherwise trigger a full young-generation scan at every run boundary.
    """
    with gc_paused():
        return _run_chaos(config, schedule, monitor)


def _run_chaos(
    config: ChaosConfig, schedule: Optional[Schedule], monitor: bool = False
) -> ChaosResult:
    if schedule is None:
        schedule = generate_schedule(config)
    if config.protocol is None:
        run = WalterRun(config, monitor)
    else:
        run = ZooRun(config, monitor)
    world = run.world
    schedule.validate(world.n_sites, config.faults)
    injector = FaultInjector(world, schedule)
    injector.start()
    clients = run.start_clients()

    violations: List[Violation] = []
    deadline = config.horizon + REPAIR_GRACE
    try:
        world.run(until=config.horizon)
        repair_proc = world.kernel.spawn(run.repair(injector), name="chaos.repair")
        # One waitable for "nothing left to wait for": the repair (which
        # also waits for the catch-ups it starts), the injector and its
        # structural ops, the clients, and the deployment's in-flight
        # recoveries.  The per-event check is a single slot read.
        waiting = [repair_proc, injector._proc] + injector._ops + clients
        quiet = world.kernel.spawn(
            _join(AllOf(waiting + run.recoveries())), name="chaos.quiet"
        )
        world.kernel.run(until=deadline, stop_when=lambda: quiet._done)
    except Exception:  # noqa: BLE001 - a crash IS a failing verdict
        violations.append(
            Violation("exception", traceback.format_exc(limit=8).strip())
        )

    if not violations:
        if not quiet.done:
            stuck = {p.name for p in waiting + run.recoveries() if not p.done}
            violations.append(
                Violation(
                    "liveness",
                    "not quiescent %.1fs past the horizon: %s"
                    % (REPAIR_GRACE, ", ".join(sorted(stuck))),
                )
            )
        else:
            try:
                world.settle(config.settle)
                run.judge(violations)
            except Exception:  # noqa: BLE001
                violations.append(
                    Violation("exception", traceback.format_exc(limit=8).strip())
                )

    if run.monitor is not None:
        # One last evaluation over the settled world: healed breaches
        # resolve, planted-bug breaches stay active.
        run.monitor.finalize(world.kernel.now)

    return ChaosResult(
        config=config,
        schedule=schedule,
        violations=violations,
        outcomes=run.outcomes(),
        applied_faults=list(injector.applied),
        injection_errors=run.errors(injector),
        end_time=world.kernel.now,
        world=world,
        monitor=run.monitor,
    )


class WalterRun:
    """One chaos run against the full Walter deployment."""

    def __init__(self, config: ChaosConfig, monitor: bool):
        self.config = config
        self.world = world = Deployment(
            n_sites=config.n_sites,
            flush_latency=config.flush_latency,
            seed=config.seed,
            trace=True,
            jitter_frac=0.10,
            tracing=bool(monitor),
            shards=config.shards,
            replication=config.replication,
        )
        world.chaos_bug = config.bug
        self.monitor = OnlineMonitor(world) if monitor else None
        self.oids, self.csets = make_objects(world, config)

    def start_clients(self) -> List:
        self.workload = start_workload(self.world, self.config, self.oids, self.csets)
        return self.workload.procs

    def repair(self, injector):
        """Put the deployment back together so the convergence/durability
        oracles judge a healed system."""
        world = self.world
        yield from injector.repair()
        for site in world.config.active_sites():
            if world.network.is_crashed(world.addresses[site]):
                world.replace_server(site)
        for site in range(world.n_sites):
            if not world.config.is_active(site):
                yield from world.reintegrate_site_gen(site)
        # The oracles judge what the catch-ups delivered, not a half-fed site.
        yield AllOf(world.recoveries)

    def recoveries(self) -> List:
        return self.world.recoveries

    def judge(self, violations: List[Violation]) -> None:
        world = self.world
        violations.extend(check_trace(world.trace, abandoned=world.abandoned_versions))
        violations.extend(check_convergence(world))
        violations.extend(check_durability(world))
        violations.extend(check_quiescence(world))

    def outcomes(self) -> Dict[str, int]:
        return self.workload.tally()

    def errors(self, injector) -> List[Tuple[str, str]]:
        """Injection and recovery errors, without the process-unique
        deployment id in host names (``walter-<id>-<site>``), so verdicts
        replay byte-identically."""
        world = self.world
        tag = re.compile(r"\b(walter|recovery-coord)-%d-" % world._deploy_id)
        return [
            (kind, tag.sub(r"\1-", text))
            for kind, text in injector.errors + world.recovery_errors
        ]


def _join(waitable):
    yield waitable
