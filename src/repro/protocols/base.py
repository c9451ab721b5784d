"""The pluggable protocol interface.

Every protocol in the zoo -- Walter's PSI, the primary-copy SI baseline,
NMSI, and the Consus-flavored strictly-serializable commit -- plugs into
one substrate-facing contract:

* a :class:`ProtocolBackend` owns a simulation (kernel, topology,
  network, servers) and records a :class:`ProtocolHistory` of everything
  clients observed;
* a :class:`ProtocolSession` is a client bound to one site, exposing the
  common transactional surface as simulation generators:
  ``begin`` / ``read`` / ``write`` / ``commit`` / ``abort``;
* ``backend.witness()`` reads, from server state, the order the
  servers committed transactions in and the writers each snapshot held;
  ``backend.check()`` hands history and witness to the level's one
  definition (:func:`repro.spec.acceptance.violations`), and
  ``backend.lattice_report()`` checks the same witness at every weaker
  level -- the inclusion-lattice conformance check.

Keys are plain strings.  Backends that spread data across sites (Walter,
NMSI) place each key deterministically with :func:`key_site`, so
identical workloads touch identical placements in every protocol.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Generator, List, Optional

from ..net import Host, Network, Topology
from ..sim import Kernel, RandomStreams
from ..spec.acceptance import Witness, violations
from ..spec.checker import Violation
from .history import ABORTED, COMMITTED, ERROR, ProtocolHistory, TxRecord
from .levels import weaker_levels


def key_site(key: str, n_sites: int) -> int:
    """Deterministic home site for a key (stable across runs/processes)."""
    return zlib.crc32(key.encode()) % n_sites


class ProtocolSession:
    """One client of a protocol backend, bound to a site.

    Subclasses implement the ``_do_*`` generator hooks; the base class
    records the observed history so oracles see every protocol through
    the same lens.
    """

    def __init__(self, backend: "ProtocolBackend", site: int, name: str):
        self.backend = backend
        self.site = site
        self.name = name
        self._seq = 0
        self._records: Dict[str, TxRecord] = {}

    # -- the common transactional surface (all generators) -------------
    def begin(self) -> Generator:
        self._seq += 1
        tid = "%s-%d" % (self.name, self._seq)
        self._records[tid] = self.backend.history.begin(
            tid, self.site, self.backend.kernel.now
        )
        yield from self._do_begin(tid)
        return tid

    def read(self, tid: str, key: str) -> Generator:
        value = yield from self._do_read(tid, key)
        self._records[tid].ops.append(("read", key, value))
        return value

    def write(self, tid: str, key: str, value: Any) -> Generator:
        yield from self._do_write(tid, key, value)
        self._records[tid].ops.append(("write", key, value))
        return None

    def commit(self, tid: str) -> Generator:
        record = self._records[tid]
        try:
            status = yield from self._do_commit(tid)
        except Exception:
            # The outcome is unknown, so the transaction never ends: the
            # witness alone says whether it committed.
            record.status = ERROR
            raise
        record.status = status
        record.end = self.backend.kernel.now
        return status

    def abort(self, tid: str) -> Generator:
        record = self._records[tid]
        yield from self._do_abort(tid)
        record.status = ABORTED
        record.end = self.backend.kernel.now
        return ABORTED

    # -- protocol hooks ------------------------------------------------
    def _do_begin(self, tid: str) -> Generator:
        return
        yield  # pragma: no cover

    def _do_read(self, tid: str, key: str) -> Generator:
        raise NotImplementedError

    def _do_write(self, tid: str, key: str, value: Any) -> Generator:
        raise NotImplementedError

    def _do_commit(self, tid: str) -> Generator:
        raise NotImplementedError

    def _do_abort(self, tid: str) -> Generator:
        raise NotImplementedError


class RpcSession(ProtocolSession):
    """A session that runs each operation as one RPC to ``server`` from
    a host of its own: ``tx_begin``, :attr:`READ`, :attr:`WRITE`,
    ``tx_commit`` (the reply is the status) and ``tx_abort``."""

    READ, WRITE = "tx_read", "tx_write"

    def __init__(self, backend: "ProtocolBackend", site: int, name: str, server: str,
                 timeout: float):
        super().__init__(backend, site, name)
        self._host = Host(backend.kernel, backend.network, site, name)
        self._host.start()
        self._server = server
        self._timeout = timeout

    def _call(self, method: str, **args) -> Generator:
        return (yield self._host.send_request(self._server, method, timeout=self._timeout, **args))

    def _do_begin(self, tid: str) -> Generator:
        yield from self._call("tx_begin", tid=tid)

    def _do_read(self, tid: str, key: str) -> Generator:
        return (yield from self._call(self.READ, tid=tid, key=key))

    def _do_write(self, tid: str, key: str, value: Any) -> Generator:
        yield from self._call(self.WRITE, tid=tid, key=key, value=value)

    def _do_commit(self, tid: str) -> Generator:
        status = yield from self._call("tx_commit", tid=tid)
        return COMMITTED if status == COMMITTED else ABORTED

    def _do_abort(self, tid: str) -> Generator:
        yield from self._call("tx_abort", tid=tid)


class ProtocolBackend:
    """A running installation of one protocol over the sim substrate."""

    #: Registry name ("walter", "si", "nmsi", "consus").
    name: str = "abstract"
    #: Isolation level from :mod:`repro.protocols.levels`.
    isolation: str = "undefined"

    def __init__(
        self,
        n_sites: int = 3,
        seed: int = 0,
        jitter_frac: float = 0.0,
        flush_latency: float = 0.0,
        topology: Optional[Topology] = None,
    ):
        self.n_sites = n_sites
        self.seed = seed
        self.flush_latency = flush_latency
        self.history = ProtocolHistory()
        self._build_substrate(topology, jitter_frac)
        self._session_seq = 0
        self._build()

    # Subclasses that wrap a Deployment override this to reuse its
    # kernel/network instead of building fresh ones.
    def _build_substrate(self, topology: Optional[Topology], jitter_frac: float) -> None:
        self.kernel = Kernel()
        self.streams = RandomStreams(self.seed)
        self.topology = topology or Topology.ec2(self.n_sites)
        self.network = Network(
            self.kernel, self.topology, streams=self.streams, jitter_frac=jitter_frac
        )

    def _build(self) -> None:
        raise NotImplementedError

    # -- clients -------------------------------------------------------
    def session(self, site: int, name: Optional[str] = None) -> ProtocolSession:
        self._session_seq += 1
        name = name or "%s-s%d-c%d" % (self.name, site, self._session_seq)
        return self._make_session(site, name)

    def _make_session(self, site: int, name: str) -> ProtocolSession:
        raise NotImplementedError

    #: Sites a session may issue writes from (the SI baseline restricts
    #: writes to its primary).
    @property
    def writable_sites(self) -> List[int]:
        return list(range(self.n_sites))

    # -- running -------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        return self.kernel.run(until=until)

    def run_process(self, gen: Generator, within: float = 60.0):
        return self.kernel.run_process(gen, until=self.kernel.now + within)

    def settle(self, duration: float = 2.0) -> None:
        self.kernel.run(until=self.kernel.now + duration)

    # -- oracles -------------------------------------------------------
    def witness(self) -> Witness:
        """The committed transactions in the order the servers committed
        them, and the writers each one's snapshot held -- read from
        server state, so a commit whose reply was lost still counts."""
        raise NotImplementedError

    def check(self) -> List[Violation]:
        """Check the recorded history against this protocol's own level;
        empty list means conformant."""
        return violations(self.isolation, self.history.transactions, self.witness())

    def lattice_report(self) -> Dict[str, List[Violation]]:
        """Check the same witness at every weaker level.  A non-empty
        entry is an inclusion-lattice violation: a witness for a level is
        a witness for every level below it."""
        witness = self.witness()
        return {
            level: violations(level, self.history.transactions, witness)
            for level in weaker_levels(self.isolation)
        }

    # -- partitions/faults (used by the protocol chaos harness) --------
    def heal_all(self) -> None:
        self.network.heal_all()


__all__ = [
    "ABORTED",
    "COMMITTED",
    "ERROR",
    "ProtocolBackend",
    "ProtocolSession",
    "RpcSession",
    "key_site",
]
