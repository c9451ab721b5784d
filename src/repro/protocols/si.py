"""Snapshot-isolation protocol: the primary-copy BDB baseline, plugged
into the protocol-zoo interface.

One :class:`~repro.baselines.bdb.BDBServer` primary (site 0) executes
every transaction under SI; the other sites host read-only replicas fed
by asynchronous log shipping (paper §8.2).  Sessions at non-primary
sites pay the WAN round trip to the primary on every transactional
operation -- exactly the latency cost Walter's PSI was designed to
avoid, which is what the zoo benchmark measures.

Witness: the primary's ``tx_timestamps`` -- ``(start_ts, commit_ts)``
per committed transaction, in commit order.  A snapshot holds every
writer whose commit timestamp is at most the reader's start timestamp.
"""

from __future__ import annotations

from typing import List

from ..baselines.bdb import BDBServer
from ..server.state import ServerCosts
from ..spec.acceptance import Witness
from .base import ProtocolBackend, RpcSession
from .levels import SNAPSHOT_ISOLATION


class SISession(RpcSession):
    READ, WRITE = "tx_get", "tx_put"

    def __init__(self, backend: "SIProtocol", site: int, name: str):
        super().__init__(backend, site, name, backend.primary.address, timeout=30.0)


class SIProtocol(ProtocolBackend):
    name = "si"
    isolation = SNAPSHOT_ISOLATION

    def _build(self) -> None:
        replica_names = ["si-replica-%d" % s for s in range(1, self.n_sites)]
        self.primary = BDBServer(
            self.kernel,
            self.network,
            0,
            "si-primary",
            costs=ServerCosts(),
            role="primary",
            replicas=replica_names,
            flush_latency=self.flush_latency,
        )
        self.replicas = [
            BDBServer(
                self.kernel,
                self.network,
                site,
                "si-replica-%d" % site,
                costs=ServerCosts(),
                role="replica",
                flush_latency=self.flush_latency,
            )
            for site in range(1, self.n_sites)
        ]
        for replica in self.replicas:
            replica.start()
        self.primary.start()

    def _make_session(self, site: int, name: str) -> SISession:
        return SISession(self, site, name)

    @property
    def writable_sites(self) -> List[int]:
        # Primary-copy: every transaction executes at the primary; the
        # zoo still places *clients* at every site so the latency cost
        # of centralization is measured, not hidden.
        return [0]

    def witness(self) -> Witness:
        stamps = self.primary.tx_timestamps
        writers = {tid: cts for tid, (sts, cts) in stamps.items() if cts != sts}
        return Witness(
            list(stamps),
            {
                tid: frozenset(w for w, cts in writers.items() if cts <= sts)
                for tid, (sts, _cts) in stamps.items()
            },
        )
