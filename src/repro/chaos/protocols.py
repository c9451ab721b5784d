"""The protocol zoo's part of a chaos run.

:func:`~repro.chaos.harness.run_chaos` runs a config with ``protocol``
set against that backend from :mod:`repro.protocols.registry`, with the
shared generator, injector, repair and result.  What is the zoo's own is
here: the seeded client sessions (writers only at
``backend.writable_sites``), and the verdict, which comes from the
backend's **own oracle** plus the inclusion-lattice report -- every
protocol is model-checked against the isolation level it claims, not
against PSI.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ..spec.checker import Violation


class ZooRun:
    """One chaos run against a protocol-zoo backend."""

    monitor = None

    def __init__(self, config, monitor: bool):
        from ..protocols.registry import build

        if monitor:
            raise ValueError("monitor=True needs the Walter deployment")
        self.config = config
        self.world = build(config.protocol, n_sites=config.n_sites, seed=config.seed)

    def start_clients(self) -> List:
        config, backend = self.config, self.world
        keys = ["pk%d" % i for i in range(config.n_objects)]
        rng = random.Random("protocol-chaos-clients:%s:%d" % (config.protocol, config.seed))
        procs = []
        for site in range(config.n_sites):
            for _ in range(config.clients_per_site):
                session = backend.session(site)
                crng = random.Random(rng.random())
                procs.append(
                    backend.kernel.spawn(
                        _client(backend, session, keys, crng, config.txs_per_client),
                        name="pchaos.client:%s" % session.name,
                    )
                )
        return procs

    def repair(self, injector):
        return injector.repair()

    def recoveries(self) -> List:
        return []

    def judge(self, violations: List[Violation]) -> None:
        """The backend's own level, then every weaker one; a violation
        at a weaker level is reported as ``lattice[<level>]:<property>``."""
        violations.extend(self.world.check())
        for level, found in sorted(self.world.lattice_report().items()):
            violations.extend(
                Violation("lattice[%s]:%s" % (level, v.property_name), v.detail)
                for v in found
            )

    def outcomes(self) -> Dict[str, int]:
        return self.world.history.outcome_tally()

    def errors(self, injector):
        return list(injector.errors)


def _client(backend, session, keys, rng, txs_per_client):
    """Generator: one session's seeded read-modify-write loop.  Faults
    surface as exceptions (RPC timeouts, doomed transactions, failed
    proposals); the history records the transaction as an ERROR and the
    client moves on -- the oracles judge what actually committed."""
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
        except Exception:  # noqa: BLE001 - chaos makes ops fail
            pass
