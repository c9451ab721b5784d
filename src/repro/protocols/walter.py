"""Walter (PSI) plugged into the protocol-zoo interface.

Wraps a full traced :class:`~repro.deployment.Deployment`: one container
per site, keys placed on their :func:`~repro.protocols.base.key_site`
home container, sessions backed by real :class:`WalterClient` instances.
``check()`` runs the PSI trace checker
(:func:`repro.spec.checker.check_trace`) besides the level's definition,
so Walter runs feed the same conformance suite and lattice report as
every other protocol.

Witness: the execution trace.  A snapshot holds every committed update
transaction whose commit ``Version`` its ``startVTS`` covers (a
read-only transaction's ``startVTS`` comes from its traced reads).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..core.objects import ObjectId
from ..deployment import Deployment
from ..net import Topology
from ..spec.acceptance import Witness, witness_by_visibility
from ..spec.checker import Violation, check_trace
from .base import ProtocolBackend, ProtocolSession, key_site
from .history import ABORTED, COMMITTED
from .levels import PSI


class WalterSession(ProtocolSession):
    def __init__(self, backend: "WalterProtocol", site: int, name: str):
        super().__init__(backend, site, name)
        self._client = backend.world.new_client(site, name=name)
        self._handles: Dict[str, Any] = {}

    def begin(self) -> Generator:
        # Walter's client library mints the tid, so the ProtocolHistory
        # rows join directly with the execution trace rows.
        handle = self._client.start_tx()
        self._handles[handle.tid] = handle
        self._records[handle.tid] = self.backend.history.begin(
            handle.tid, self.site, self.backend.kernel.now
        )
        return handle.tid
        yield  # pragma: no cover

    def _do_read(self, tid: str, key: str) -> Generator:
        value = yield from self._client.read(self._handles[tid], self.backend.oid(key))
        return value

    def _do_write(self, tid: str, key: str, value: Any) -> Generator:
        yield from self._client.write(self._handles[tid], self.backend.oid(key), value)

    def _do_commit(self, tid: str) -> Generator:
        status = yield from self._client.commit(self._handles[tid])
        return COMMITTED if status == COMMITTED else ABORTED

    def _do_abort(self, tid: str) -> Generator:
        yield from self._client.abort(self._handles[tid])


class WalterProtocol(ProtocolBackend):
    name = "walter"
    isolation = PSI

    def _build_substrate(self, topology: Optional[Topology], jitter_frac: float) -> None:
        self.world = Deployment(
            n_sites=self.n_sites,
            topology=topology,
            seed=self.seed,
            flush_latency=self.flush_latency,
            trace=True,
            jitter_frac=jitter_frac,
        )
        self.kernel = self.world.kernel
        self.network = self.world.network
        self.topology = self.world.topology
        self.streams = self.world.streams

    def _build(self) -> None:
        self._containers = [
            self.world.create_container("zoo-c%d" % site, preferred_site=site)
            for site in range(self.n_sites)
        ]
        self._oids: Dict[str, ObjectId] = {}

    def oid(self, key: str) -> ObjectId:
        oid = self._oids.get(key)
        if oid is None:
            container = self._containers[key_site(key, self.n_sites)]
            oid = container.new_id(local="k:%s" % key)
            self._oids[key] = oid
        return oid

    def _make_session(self, site: int, name: str) -> WalterSession:
        return WalterSession(self, site, name)

    def witness(self) -> Witness:
        trace = self.world.trace
        start_vts = {read.tid: read.start_vts for read in reversed(trace.reads)}
        start_vts.update((tid, tx.start_vts) for tid, tx in trace.transactions.items())
        committed = list(trace.transactions) + [
            t.tid for t in self.history.transactions
            if t.committed and t.tid not in trace.transactions
        ]
        return witness_by_visibility({
            tid: frozenset(
                w for w, tx in trace.transactions.items()
                if w != tid and tid in start_vts and start_vts[tid].visible(tx.version)
            )
            for tid in committed
        })

    def check(self) -> List[Violation]:
        return check_trace(
            self.world.trace, abandoned=self.world.abandoned_versions
        ) + super().check()
