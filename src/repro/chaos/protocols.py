"""Protocol-zoo chaos: seeded faults against any registry backend.

The main chaos harness (:mod:`repro.chaos.harness`) drives the full
Walter deployment with its structural fault catalog (crashes, site
removal, container handover).  This module is the light cross-protocol
counterpart: the *same* seeded workload and fault pattern runs against
any backend from :mod:`repro.protocols.registry`, and the verdict comes
from the backend's **own oracle** plus the inclusion-lattice report --
every protocol is model-checked against the isolation level it claims,
not against PSI.

One :func:`run_protocol_chaos` call is one experiment:

1. build the backend from ``(protocol, seed)``;
2. spawn seeded clients (writers only at ``backend.writable_sites``)
   and a fault process injecting partitions and loss bursts drawn from
   the same seed;
3. **repair**: at the horizon, heal every partition and cancel loss,
   then wait for every client to drain (bounded -- a client that cannot
   finish is a liveness violation);
4. **judge**: settle, then run ``backend.check()`` and
   ``backend.lattice_report()`` over the recorded history.

Everything is a deterministic function of the config: same protocol +
seed, same verdict, for every protocol in the registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..spec.checker import Violation
from .schedule import canonical_json

#: Extra sim-time past the horizon for draining client timeouts (the SI
#: baseline's cross-site RPCs time out at 30 s) and replication retries.
DRAIN_GRACE = 200.0


@dataclass(frozen=True)
class ProtocolChaosConfig:
    """Everything that determines a protocol-zoo chaos run."""

    protocol: str
    seed: int
    n_sites: int = 3
    horizon: float = 20.0
    fault_budget: int = 4
    clients_per_site: int = 2
    txs_per_client: int = 6
    n_keys: int = 6
    settle: float = 40.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "n_sites": self.n_sites,
            "horizon": self.horizon,
            "fault_budget": self.fault_budget,
            "clients_per_site": self.clients_per_site,
            "txs_per_client": self.txs_per_client,
            "n_keys": self.n_keys,
            "settle": self.settle,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "ProtocolChaosConfig":
        return cls(**obj)


@dataclass
class ProtocolChaosResult:
    """Outcome of one protocol-zoo chaos run."""

    config: ProtocolChaosConfig
    violations: List[Violation] = field(default_factory=list)
    #: level name -> violations from re-checking at that weaker level.
    lattice: Dict[str, List[Violation]] = field(default_factory=dict)
    outcomes: Dict[str, int] = field(default_factory=dict)
    applied_faults: List[str] = field(default_factory=list)
    client_errors: List[str] = field(default_factory=list)
    end_time: float = 0.0
    backend: Any = None  # the ProtocolBackend, for post-mortem inspection

    @property
    def passed(self) -> bool:
        return not self.violations and not any(self.lattice.values())

    def verdict_obj(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "violations": [
                {"property": v.property_name, "detail": v.detail}
                for v in self.violations
            ],
            "lattice": {
                level: [
                    {"property": v.property_name, "detail": v.detail} for v in vs
                ]
                for level, vs in sorted(self.lattice.items())
            },
            "outcomes": dict(sorted(self.outcomes.items())),
            "applied_faults": list(self.applied_faults),
            "end_time": round(self.end_time, 9),
        }

    def verdict_json(self) -> str:
        return canonical_json(self.verdict_obj())


def generate_protocol_faults(
    config: ProtocolChaosConfig,
) -> List[Tuple[float, str, Dict[str, Any]]]:
    """Draw a deterministic ``(at, kind, args)`` fault list from the
    config seed: inter-site partitions (healed within the horizon by
    their paired ``heal`` event or by repair) and loss bursts."""
    rng = random.Random("protocol-chaos:%s:%d" % (config.protocol, config.seed))
    events: List[Tuple[float, str, Dict[str, Any]]] = []
    for _ in range(config.fault_budget):
        at = rng.uniform(0.05, config.horizon * 0.7)
        if rng.random() < 0.6 and config.n_sites >= 2:
            a, b = rng.sample(range(config.n_sites), 2)
            duration = rng.uniform(0.5, config.horizon * 0.25)
            events.append((at, "partition", {"a": a, "b": b}))
            events.append((at + duration, "heal", {"a": a, "b": b}))
        else:
            events.append(
                (
                    at,
                    "loss_burst",
                    {
                        "rate": round(rng.uniform(0.05, 0.3), 3),
                        "duration": round(rng.uniform(0.5, 2.0), 3),
                    },
                )
            )
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def _inject(backend, events, applied: List[str]):
    """Generator: walk the fault list against the backend's network."""
    kernel = backend.kernel
    network = backend.network
    base_loss = network.loss_rate

    def _end_burst(until):
        def cb():
            if kernel.now >= until:
                network.loss_rate = base_loss

        return cb

    for at, kind, args in events:
        if at > kernel.now:
            yield kernel.timeout(at - kernel.now)
        if kind == "partition":
            network.partition(args["a"], args["b"])
        elif kind == "heal":
            network.heal(args["a"], args["b"])
        elif kind == "loss_burst":
            until = kernel.now + args["duration"]
            network.loss_rate = max(network.loss_rate, args["rate"])
            kernel.call_at(until, _end_burst(until))
        applied.append(kind)


def _client(backend, session, keys, rng, txs_per_client, errors: List[str]):
    """Generator: one session's seeded read-modify-write loop.  Faults
    surface as exceptions (RPC timeouts, doomed transactions, failed
    proposals); each one is recorded and the client moves on -- the
    oracles judge what actually committed."""
    kernel = backend.kernel
    can_write = session.site in backend.writable_sites
    for i in range(txs_per_client):
        yield kernel.timeout(rng.uniform(0.01, 0.4))
        try:
            tid = yield from session.begin()
            k1 = rng.choice(keys)
            k2 = rng.choice(keys)
            value = yield from session.read(tid, k1)
            if can_write and rng.random() < 0.8:
                yield from session.write(
                    tid, k2, "%s:%d:%s" % (session.name, i, value)
                )
            else:
                yield from session.read(tid, k2)
            yield from session.commit(tid)
        except Exception as exc:  # noqa: BLE001 - chaos makes ops fail
            errors.append("%s tx%d: %s: %s" % (session.name, i, type(exc).__name__, exc))


def run_protocol_chaos(config: ProtocolChaosConfig) -> ProtocolChaosResult:
    """Run one protocol-zoo chaos experiment; see the module docstring."""
    from ..protocols.registry import build

    backend = build(config.protocol, n_sites=config.n_sites, seed=config.seed)
    keys = ["pk%d" % i for i in range(config.n_keys)]
    events = generate_protocol_faults(config)

    applied: List[str] = []
    errors: List[str] = []
    backend.kernel.spawn(_inject(backend, events, applied), name="pchaos.injector")
    procs = []
    rng = random.Random(
        "protocol-chaos-clients:%s:%d" % (config.protocol, config.seed)
    )
    for site in range(config.n_sites):
        for c in range(config.clients_per_site):
            session = backend.session(site)
            crng = random.Random(rng.random())
            procs.append(
                backend.kernel.spawn(
                    _client(backend, session, keys, crng, config.txs_per_client, errors),
                    name="pchaos.client:%s" % session.name,
                )
            )

    violations: List[Violation] = []
    lattice: Dict[str, List[Violation]] = {}
    try:
        backend.run(until=config.horizon)
        backend.heal_all()
        backend.network.loss_rate = 0.0
        deadline = config.horizon + DRAIN_GRACE
        backend.kernel.run(
            until=deadline, stop_when=lambda: all(p.done for p in procs)
        )
        if not all(p.done for p in procs):
            stuck = sorted(p.name for p in procs if not p.done)
            violations.append(
                Violation(
                    "liveness",
                    "clients not drained %.1fs past the horizon: %s"
                    % (DRAIN_GRACE, ", ".join(stuck)),
                )
            )
        else:
            backend.settle(config.settle)
            violations.extend(backend.check())
            lattice = backend.lattice_report()
    except Exception:  # noqa: BLE001 - a crash IS a failing verdict
        import traceback

        violations.append(
            Violation("exception", traceback.format_exc(limit=8).strip())
        )

    return ProtocolChaosResult(
        config=config,
        violations=violations,
        lattice=lattice,
        outcomes=backend.history.outcome_tally(),
        applied_faults=applied,
        client_errors=errors,
        end_time=backend.kernel.now,
        backend=backend,
    )


__all__ = [
    "DRAIN_GRACE",
    "ProtocolChaosConfig",
    "ProtocolChaosResult",
    "generate_protocol_faults",
    "run_protocol_chaos",
]
