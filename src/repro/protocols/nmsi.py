"""Non-Monotonic Snapshot Isolation on the simulated substrate.

NMSI (Ardekani et al., "Non-Monotonic Snapshot Isolation") keeps PSI's
two expensive guarantees -- no lost updates, consistent snapshots -- but
drops the *monotonic* site-ordered snapshot: instead of a startVTS
frozen from the site's committed frontier, every transaction carries a
**dependency vector** that grows from what it actually reads.  Two
transactions at the same site may hold incomparable snapshots, and a
version can be read as soon as it is applied, without waiting for the
site frontier to advance past it.

Implementation shape (one :class:`NMSIServer` per site, fully
replicated):

* every committed transaction becomes a version ``(site, seqno)`` whose
  ``depvec`` records, per site, the highest seqno it depends on;
* reads return the newest locally-applied version *compatible* with the
  transaction's dependency closure (rule: no already-read key may have a
  newer version inside the candidate's dependencies); an incompatible
  forced version dooms the transaction instead of returning an
  inconsistent snapshot;
* writes are buffered; commit runs a per-key-master vote: the master of
  each written key rejects lost updates (a read-modify-write must have
  read the key's latest version) and serializes conflicting writers with
  short-lived locks; blind writes adopt the overwritten version as a
  dependency so each key's versions form a dependency chain -- and
  abort instead if that version depends on something the transaction's
  snapshot cannot hold (not applied at its site yet, or newer than a
  version it read);
* replication pushes the committed record to every site with retries;
  application is gated on the dependency vector (per-origin seqno order
  plus all dependencies applied), never on a total site order.

Witness: the servers' version stores.  A snapshot holds, transitively,
the writer each read returned (found by the unique written value) and
every earlier version of a key a writer's dependency vector covers (the
version it overwrote).  Plain dependency-vector coverage is not causal
-- per-site seqnos are not chained -- so it is used only within a key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TransactionStateError
from ..net import Host, RpcError, service_time
from ..server.state import ServerCosts
from ..sim import Interrupt, Resource
from ..storage import DiskLog
from ..spec.acceptance import Witness, witness_by_visibility
from .base import ProtocolBackend, RpcSession, key_site
from .history import ABORTED, COMMITTED
from .levels import NMSI

Ver = Tuple[int, int]  # (origin site, per-origin seqno)


def covers(depvec: Tuple[int, ...], ver: Ver) -> bool:
    """True iff the dependency vector includes ``ver``."""
    return depvec[ver[0]] >= ver[1]


def merge_dep(depvec: Tuple[int, ...], other: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(max(a, b) for a, b in zip(depvec, other))


def with_ver(depvec: Tuple[int, ...], ver: Ver) -> Tuple[int, ...]:
    if depvec[ver[0]] >= ver[1]:
        return depvec
    out = list(depvec)
    out[ver[0]] = ver[1]
    return tuple(out)


@dataclass
class VersionRec:
    ver: Ver
    value: Any
    depvec: Tuple[int, ...]
    writer: str


@dataclass
class NMSITx:
    tid: str
    depvec: Tuple[int, ...]
    read_vers: Dict[str, Optional[Ver]] = field(default_factory=dict)
    writes: Dict[str, Any] = field(default_factory=dict)
    doomed: bool = False
    status: str = "ACTIVE"


class NMSIServer(Host):
    """One site of the NMSI store: coordinator for local transactions,
    master for the keys it owns, replica of everything."""

    PUSH_RETRY_DELAY = 0.25
    PUSH_MAX_ATTEMPTS = 400

    def __init__(self, kernel, network, site_id: int, name: str, n_sites: int,
                 peers: Dict[int, str], costs: Optional[ServerCosts] = None,
                 flush_latency: float = 0.0):
        super().__init__(kernel, network, site_id, name)
        self.site_id = site_id
        self.n_sites = n_sites
        self.peers = dict(peers)
        self.costs = costs or ServerCosts()
        self.cpu = Resource(kernel, self.costs.cores, name="%s.cpu" % name)
        self.disk = DiskLog(kernel, flush_latency=flush_latency, name="%s.disk" % name)
        self.store: Dict[str, List[VersionRec]] = {}
        self.applied: List[int] = [0] * n_sites
        self._apply_queue: List[dict] = []
        self._seen_vers: set = set()
        self.locks: Dict[str, str] = {}
        self._txs: Dict[str, NMSITx] = {}
        self._seq = itertools.count(1)
        self._zero = tuple([0] * n_sites)

    # ------------------------------------------------------------------
    # Transaction lifecycle (client-facing)
    # ------------------------------------------------------------------
    @service_time(lambda server, tid: server.costs.read_op * 0.5)
    def rpc_tx_begin(self, tid: str):
        self._txs[tid] = NMSITx(tid=tid, depvec=self._zero)
        return "OK"

    def _tx(self, tid: str) -> NMSITx:
        tx = self._txs.get(tid)
        if tx is None or tx.status != "ACTIVE":
            raise TransactionStateError("unknown/finished tx %r" % (tid,))
        return tx

    @service_time("read_op")
    def rpc_tx_read(self, tid: str, key: str):
        tx = self._tx(tid)
        if key in tx.writes:
            return tx.writes[key]
        if key in tx.read_vers:
            # Repeatable read: return the already-chosen version.
            ver = tx.read_vers[key]
            return None if ver is None else self._version(key, ver).value
        chosen = self._choose_version(tx, key)
        if chosen is _INCONSISTENT:
            # The forced version (already in the dependency closure)
            # conflicts with an earlier read: no consistent snapshot
            # extension exists.  Doom the transaction; the value returned
            # is never certified.
            tx.doomed = True
            chain = self.store.get(key, [])
            forced = chain[self._floor(tx, key)]
            tx.read_vers[key] = forced.ver
            return forced.value
        if chosen is None:
            tx.read_vers[key] = None
            return None
        tx.depvec = with_ver(merge_dep(tx.depvec, chosen.depvec), chosen.ver)
        tx.read_vers[key] = chosen.ver
        return chosen.value

    @service_time("write_op")
    def rpc_tx_write(self, tid: str, key: str, value: Any):
        self._tx(tid).writes[key] = value
        return "OK"

    def rpc_tx_abort(self, tid: str):
        tx = self._txs.pop(tid, None)
        if tx is not None:
            tx.status = ABORTED
        return ABORTED

    @service_time("commit_op")
    def rpc_tx_commit(self, tid: str):
        tx = self._tx(tid)
        if tx.doomed:
            tx.status = ABORTED
            self._txs.pop(tid, None)
            return ABORTED
        if not tx.writes:
            tx.status = COMMITTED
            self._txs.pop(tid, None)
            return COMMITTED
        by_master: Dict[int, List[str]] = {}
        for key in tx.writes:
            by_master.setdefault(key_site(key, self.n_sites), []).append(key)
        granted: List[int] = []
        ok = True
        merges: List[Tuple[Ver, Tuple[int, ...]]] = []
        for master, keys in sorted(by_master.items()):
            reply = yield from self._prepare_at(master, tid, keys, tx)
            if not reply.get("ok"):
                ok = False
                break
            granted.append(master)
            merges.extend(reply.get("merge", []))
        # Blind writes adopt the overwritten version (and its deps) so
        # every key's committed versions form a dependency chain -- which
        # the snapshot can only hold if this site has applied all of it
        # and none of it is newer than a version the transaction read.
        adopted = [with_ver(tuple(depvec), tuple(ver)) for ver, depvec in merges]
        ok = ok and all(
            all(d <= a for d, a in zip(depvec, self.applied))
            and self._compatible(tx, depvec)
            for depvec in adopted
        )
        if not ok:
            for master in granted:
                self._release_at(master, tid)
            tx.status = ABORTED
            self._txs.pop(tid, None)
            return ABORTED
        for depvec in adopted:
            tx.depvec = merge_dep(tx.depvec, depvec)
        seq = next(self._seq)
        ver: Ver = (self.site_id, seq)
        record = {
            "ver": ver,
            "depvec": tx.depvec,
            "writes": dict(tx.writes),
            "tid": tid,
        }
        yield self.disk.append(("commit", tid))
        self._enqueue(record)
        for site, address in self.peers.items():
            if site != self.site_id:
                self.kernel.spawn(
                    self._push(address, "nmsi_apply", {"record": record}),
                    name="%s.push:%s:%d" % (self.address, tid, site),
                )
        tx.status = COMMITTED
        self._txs.pop(tid, None)
        return COMMITTED

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def _version(self, key: str, ver: Ver) -> VersionRec:
        for rec in self.store.get(key, []):
            if rec.ver == ver:
                return rec
        raise KeyError((key, ver))

    def _floor(self, tx: NMSITx, key: str) -> int:
        """Index of the newest version of ``key`` already inside the
        transaction's dependency closure, or -1."""
        chain = self.store.get(key, [])
        for i in range(len(chain) - 1, -1, -1):
            if covers(tx.depvec, chain[i].ver):
                return i
        return -1

    def _compatible(self, tx: NMSITx, depvec: Tuple[int, ...]) -> bool:
        """May ``tx`` extend its snapshot with dependencies ``depvec``?
        Not if they include a version of an already-read key newer than
        the one the transaction read."""
        for prev_key, read_ver in tx.read_vers.items():
            chain = self.store.get(prev_key, [])
            start = 0
            if read_ver is not None:
                for i, rec in enumerate(chain):
                    if rec.ver == read_ver:
                        start = i + 1
                        break
            for rec in chain[start:]:
                if covers(depvec, rec.ver):
                    return False
        return True

    def _choose_version(self, tx: NMSITx, key: str):
        chain = self.store.get(key, [])
        floor = self._floor(tx, key)
        for i in range(len(chain) - 1, max(floor, 0) - 1, -1):
            if self._compatible(tx, chain[i].depvec):
                return chain[i]
        if floor >= 0:
            return _INCONSISTENT
        return None  # no version forced, none compatible/present: initial

    # ------------------------------------------------------------------
    # Per-key-master certification (lost updates, conflicting writers)
    # ------------------------------------------------------------------
    def _prepare_at(self, master: int, tid: str, keys: List[str], tx: NMSITx):
        # Only keys the transaction actually read appear in ``reads``; a
        # missing key is a blind write (no lost-update check, but the
        # master hands back the overwritten version to depend on).
        reads = {k: tx.read_vers[k] for k in keys if k in tx.read_vers}
        if master == self.site_id:
            return self._prepare_local(tid, keys, reads)
        try:
            reply = yield from self.call(
                self.peers[master], "nmsi_prepare",
                timeout=5.0, tid=tid, keys=keys, reads=reads,
            )
            return reply
        except RpcError:
            return {"ok": False}

    @service_time("commit_op")
    def rpc_nmsi_prepare(self, tid: str, keys: List[str], reads: Dict[str, Optional[Ver]]):
        return self._prepare_local(tid, keys, reads)

    def _prepare_local(self, tid: str, keys: List[str], reads) -> dict:
        for key in keys:
            holder = self.locks.get(key)
            if holder is not None and holder != tid:
                return {"ok": False}
        merge = []
        for key in keys:
            chain = self.store.get(key, [])
            latest = chain[-1] if chain else None
            if key in reads:
                # Read-modify-write: the read must have seen the latest
                # committed version the master knows -- else lost update.
                read_ver = reads[key]
                latest_ver = latest.ver if latest is not None else None
                if latest_ver != (tuple(read_ver) if read_ver is not None else None):
                    return {"ok": False}
            elif latest is not None:
                merge.append((latest.ver, latest.depvec))
        for key in keys:
            self.locks[key] = tid
        return {"ok": True, "merge": merge}

    def _release_at(self, master: int, tid: str) -> None:
        if master == self.site_id:
            self._release_local(tid)
        else:
            self.kernel.spawn(
                self._push(self.peers[master], "nmsi_release", {"tid": tid}),
                name="%s.release:%s:%d" % (self.address, tid, master),
            )

    def rpc_nmsi_release(self, tid: str):
        self._release_local(tid)
        return "OK"

    def _release_local(self, tid: str) -> None:
        for key in [k for k, holder in self.locks.items() if holder == tid]:
            del self.locks[key]

    # ------------------------------------------------------------------
    # Replication: dependency-gated application
    # ------------------------------------------------------------------
    @service_time("apply_remote")
    def rpc_nmsi_apply(self, record: dict):
        self._enqueue(record)
        return "ACK"

    def _enqueue(self, record: dict) -> None:
        ver = tuple(record["ver"])
        if ver in self._seen_vers or ver[1] <= self.applied[ver[0]]:
            return
        self._seen_vers.add(ver)
        self._apply_queue.append(record)
        self._drain()

    def _can_apply(self, record: dict) -> bool:
        origin, seq = record["ver"]
        if seq != self.applied[origin] + 1:
            return False
        depvec = record["depvec"]
        for site in range(self.n_sites):
            if site != origin and depvec[site] > self.applied[site]:
                return False
        return True

    def _drain(self) -> None:
        progress = True
        while progress:
            progress = False
            for record in list(self._apply_queue):
                if self._can_apply(record):
                    self._apply_queue.remove(record)
                    self._apply(record)
                    progress = True

    def _apply(self, record: dict) -> None:
        ver = tuple(record["ver"])
        depvec = tuple(record["depvec"])
        tid = record["tid"]
        for key, value in record["writes"].items():
            self.store.setdefault(key, []).append(
                VersionRec(ver=ver, value=value, depvec=depvec, writer=tid)
            )
            if self.locks.get(key) == tid:
                del self.locks[key]
        self.applied[ver[0]] = ver[1]
        self._seen_vers.discard(ver)

    def _push(self, address: str, method: str, args: dict):
        """Deliver one message reliably: retry through partitions/loss
        until acked (the protocol chaos harness heals before judging)."""
        try:
            for _attempt in range(self.PUSH_MAX_ATTEMPTS):
                try:
                    yield from self.call(address, method, timeout=2.0, **args)
                    return
                except RpcError:
                    yield self.kernel.timeout(self.PUSH_RETRY_DELAY)
        except Interrupt:
            return


class _Inconsistent:
    __slots__ = ()


_INCONSISTENT = _Inconsistent()


class NMSISession(RpcSession):
    def __init__(self, backend: "NMSIProtocol", site: int, name: str):
        super().__init__(backend, site, name, backend.servers[site].address, timeout=30.0)


class NMSIProtocol(ProtocolBackend):
    name = "nmsi"
    isolation = NMSI

    def _build(self) -> None:
        addresses = {site: "nmsi-%d" % site for site in range(self.n_sites)}
        self.servers = [
            NMSIServer(
                self.kernel,
                self.network,
                site,
                addresses[site],
                n_sites=self.n_sites,
                peers=addresses,
                flush_latency=self.flush_latency,
            )
            for site in range(self.n_sites)
        ]
        for server in self.servers:
            server.start()

    def _make_session(self, site: int, name: str) -> NMSISession:
        return NMSISession(self, site, name)

    def witness(self) -> Witness:
        depvec_of: Dict[str, Tuple[int, ...]] = {}
        by_key: Dict[str, Dict[str, Ver]] = {}
        writer_of: Dict[Tuple[str, Any], str] = {}
        for server in self.servers:
            for key, chain in server.store.items():
                for rec in chain:
                    depvec_of[rec.writer] = rec.depvec
                    by_key.setdefault(key, {})[rec.writer] = rec.ver
                    writer_of[(key, rec.value)] = rec.writer
        # Direct edges: read-from (a read of an unknown value, or of the
        # transaction's own write, names the reader itself) ...
        sees: Dict[str, set] = {tid: set() for tid in depvec_of}
        for t in self.history.transactions:
            if t.committed or t.tid in sees:
                sees.setdefault(t.tid, set()).update(
                    writer_of.get(read, t.tid) for read in t.reads()
                )
        # ... and overwrote, within one key's versions.
        for writers in by_key.values():
            for tid in writers:
                sees[tid].update(
                    u for u, ver in writers.items() if covers(depvec_of[tid], ver)
                )
        visible = {}
        for tid, direct in sees.items():
            seen: set = set()
            stack = list(direct - {tid})
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack.extend(sees.get(u, ()))
            visible[tid] = frozenset(seen)
        return witness_by_visibility(visible)
