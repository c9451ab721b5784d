"""Transaction execution (paper Fig 10, §5.3).

Start assigns ``startVTS`` from the site's ``CommittedVTS``; reads come
from the snapshot determined by ``startVTS`` plus the transaction's own
update buffer; updates are buffered server-side (each update is one client
RPC, as in the C++ implementation).  Reading an object that is not
replicated locally fetches the visible versions from the object's
preferred site and merges them with any local-history versions (§5.3).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..obs import trace as span
from ..core.cset import CSet
from ..core.objects import ObjectId, ObjectKind
from ..core.transaction import Transaction, TxStatus
from ..core.updates import apply_cset_ops, last_data
from ..errors import TransactionStateError
from ..net import service_time
from ..spec.checker import TracedRead


def _batch_of(arg: str):
    """Service time of a combined operation (§6): one RPC shell plus a
    reduced cost per further element of the request's ``arg`` list."""
    return lambda server, **args: server._batch_cost(len(args[arg]))


class ExecutionMixin:
    """startTx / read / write / setAdd / setDel / setRead (Fig 10)."""

    # ------------------------------------------------------------------
    # Transaction registry
    # ------------------------------------------------------------------
    def _get_tx(self, tid: str) -> Transaction:
        tx = self._txs.get(tid)
        if tx is None:
            raise TransactionStateError("unknown transaction %r at %s" % (tid, self.address))
        self._touch_tx_lease(tid)
        return tx

    def _ensure_tx(self, tid: str, fresh: bool = True) -> Transaction:
        """Start the transaction on first access (piggybacked start, §8.2).

        ``fresh=False`` asserts the client already issued accesses for
        this tid: if we do not know it, this server is a replacement that
        lost the transaction's buffered updates -- fail loudly instead of
        silently starting an empty transaction (which would let a commit
        apply a *partial* update set).
        """
        tx = self._txs.get(tid)
        if tx is None:
            if not fresh:
                raise TransactionStateError(
                    "unknown transaction %r at %s (buffered updates lost "
                    "in a server failure?)" % (tid, self.address)
                )
            tx = Transaction(tid=tid, site=self.site_id, start_vts=self.committed_vts)
            self._txs[tid] = tx
            self.stats.inc("started")
            self._span(tid, span.EXECUTE)
        self._touch_tx_lease(tid)
        return tx

    def _touch_tx_lease(self, tid: str) -> None:
        """Every access renews the transaction's lease (DESIGN.md §9); a
        transaction untouched for a full lease is abandoned and reaped."""
        self._tx_deadlines[tid] = self.kernel.now + self.leases.tx_lease

    def _drop_tx(self, tid: str) -> Optional[Transaction]:
        """Forget a finished transaction (commit/abort/reap paths)."""
        self._tx_deadlines.pop(tid, None)
        return self._txs.pop(tid, None)

    @service_time("read_op")
    def rpc_tx_start(self, tid: str):
        self._ensure_tx(tid)
        return "OK"

    def rpc_tx_abort(self, tid: str):
        tx = self._drop_tx(tid)
        if tx is not None and tx.status is TxStatus.ACTIVE:
            tx.mark_aborted()
            self.stats.inc("aborts")
        if self._tracer is not None:
            # Client-initiated aborts emit no terminal span; mark the
            # trace complete so the ring buffer may evict it.
            self._tracer.finish(tid)
        return "ABORTED"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @service_time("read_op")
    def rpc_tx_read(self, tid: str, oid: ObjectId, last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        tx.require_active()
        value = yield from self._read_value(tx, oid)
        if last:
            status = yield from self._commit_tx(tx, notify=notify)
            return (value, status)
        return value

    #: A cset read is a read: same handler, so the same declared cost.
    rpc_tx_set_read = rpc_tx_read

    @service_time("read_op")
    def rpc_tx_set_read_id(self, tid: str, oid: ObjectId, elem: Hashable, last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        tx.require_active()
        cset = yield from self._read_value(tx, oid)
        count = cset.count(elem)
        if last:
            status = yield from self._commit_tx(tx, notify=notify)
            return (count, status)
        return count

    def _read_value(self, tx: Transaction, oid: ObjectId):
        """Fig 10 read: snapshot at startVTS + own buffer; remote fetch
        for objects not replicated locally."""
        container = self.config.container(oid.container)
        owner = container.preferred_site == self.site_id
        if container.replicated_at(self.site_id):
            # LRU accounting only (paper §6): a miss means the object
            # would have been materialized from the log/checkpoint.  The
            # cached value is never returned -- reads always come from the
            # snapshot-correct history -- so this cannot affect results,
            # only the hit-rate metrics.
            hit, _ = self.storage.cache.get(oid)
            if oid.kind is ObjectKind.CSET:
                value = self.histories.read_cset(oid, tx.start_vts, tx.updates)
            else:
                value = self.histories.read_regular(oid, tx.start_vts, tx.updates)
            if not hit:
                self.storage.cache.put(oid, True)
            if self.profiler is not None:
                self.profiler.record_read(oid, owner)
            self._trace_read(tx, oid, value)
            return value
        if self.profiler is not None:
            self.profiler.record_read(oid, owner)
        target = self._nearest_replica(container)
        payload = None
        if target != container.preferred_site:
            # PaRiS-style non-blocking read (DESIGN.md §13): fetch from
            # the closest replica holding the shard.  The replica serves
            # only if its CommittedVTS dominates our snapshot -- any
            # version visible at startVTS is then guaranteed applied
            # there -- and a behind replica answers None, after which we
            # fall back to the classic preferred-site read.
            payload = yield from self._remote_read_rpc(tx, target, oid, True)
        if payload is None:
            payload = yield from self._remote_read_rpc(
                tx, container.preferred_site, oid, False
            )
        value = self._compose_value(tx, oid, payload)
        self._trace_read(tx, oid, value)
        return value

    def _remote_read_rpc(self, tx: Transaction, target: int, oid: ObjectId, only_if_current: bool):
        return self.call(
            self.peers[target],
            "remote_read",
            oid=oid,
            start_vts=tx.start_vts,
            only_if_current=only_if_current,
            timeout=self._rpc_timeout,
            span=self._span_ctx(tx.tid, span.EXECUTE),
        )

    def _nearest_replica(self, container) -> int:
        """The active replica of ``container`` closest to this site (by
        RTT; ties broken toward the preferred site, then lowest id)."""
        topology = self.network.topology
        best = container.preferred_site
        best_rtt = topology.rtt(self.site_id, best)
        for site in sorted(container.replica_sites):
            if site == best or not self.config.is_active(site):
                continue
            rtt = topology.rtt(self.site_id, site)
            if rtt < best_rtt:
                best, best_rtt = site, rtt
        return best

    @service_time("read_op")
    def rpc_remote_read(self, oid: ObjectId, start_vts, only_if_current: bool = False):
        """Serve a read for a site that does not replicate ``oid``: the
        suffix entries visible to the caller's snapshot plus, for csets,
        the GC base and watermark (see
        :meth:`~repro.core.history.SiteHistories.remote_read_payload`).

        With ``only_if_current`` (set by nearest-replica reads under
        partial replication) the payload is only served when this
        replica's CommittedVTS dominates the caller's snapshot; a behind
        replica returns None and the caller retries at the preferred
        site, keeping the read non-blocking."""
        if only_if_current and not self.committed_vts.dominates(start_vts):
            return None
        return self.histories.remote_read_payload(oid, start_vts)

    def _compose_value(self, tx: Transaction, oid: ObjectId, payload: Dict):
        """Merge preferred-site versions with local-history versions (the
        local history of a non-replicated object holds updates committed
        here that are still propagating, §5.3) and the tx's own buffer.

        Ordering: the remote list is in the preferred site's apply order
        and the local list in ours, both consistent with the (total)
        causal order of a regular object's versions.  A local entry
        absent from the remote payload and not covered by the remote GC
        watermark has *not* been applied at the preferred site, so every
        remote entry is causally before it (the preferred site could not
        have applied a causal successor without it); hence
        ``remote ++ filtered-local`` is itself causally ordered.  A local
        entry that IS covered by the remote watermark was already folded
        or superseded remotely and must be dropped, not re-applied --
        taking it by list position was the old stale-read bug."""
        remote_entries: List[Tuple] = payload["entries"]
        remote_gc_vts = payload["gc_vts"]
        remote_versions = {version for _update, version in remote_entries}
        hist = self.histories.get(oid)
        updates = [update for update, _version in remote_entries]
        updates += [
            e.update
            for e in (hist.visible_entries(tx.start_vts) if hist is not None else ())
            if e.version not in remote_versions
            and (remote_gc_vts is None or not remote_gc_vts.visible(e.version))
        ]
        # The transaction's own buffer comes last: it shadows the snapshot.
        updates += tx.updates
        if oid.kind is ObjectKind.CSET:
            return apply_cset_ops(CSet(payload["base"]), updates, oid)
        return last_data(updates, oid)[1]

    # ------------------------------------------------------------------
    # Buffered updates
    # ------------------------------------------------------------------
    @service_time("write_op")
    def rpc_tx_write(self, tid: str, oid: ObjectId, data: Any, last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        tx.buffer_write(oid, data)
        if last:
            return (yield from self._commit_tx(tx, notify=notify))
        return "OK"

    @service_time("write_op")
    def rpc_tx_set_add(self, tid: str, oid: ObjectId, elem: Hashable, last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        tx.buffer_set_add(oid, elem)
        if last:
            return (yield from self._commit_tx(tx, notify=notify))
        return "OK"

    @service_time("write_op")
    def rpc_tx_set_del(self, tid: str, oid: ObjectId, elem: Hashable, last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        tx.buffer_set_del(oid, elem)
        if last:
            return (yield from self._commit_tx(tx, notify=notify))
        return "OK"

    # ------------------------------------------------------------------
    # Combined operations (§6: "functions that combine multiple
    # operations in a single RPC ... for reading or writing many objects,
    # and for reading all objects whose ids are in a cset")
    # ------------------------------------------------------------------
    def _batch_cost(self, n: int) -> float:
        """One RPC shell plus a reduced per-extra-object cost."""
        return self.costs.read_op + max(0, n - 1) * self.costs.read_op * 0.25

    @service_time(_batch_of("oids"))
    def rpc_tx_multiread(self, tid: str, oids: List[ObjectId], last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        tx.require_active()
        # Each object is read exactly as by ``rpc_tx_read``; the combined
        # operation saves client round trips and per-RPC CPU, not reads.
        values = []
        for oid in oids:
            values.append((yield from self._read_value(tx, oid)))
        if last:
            status = yield from self._commit_tx(tx, notify=notify)
            return (values, status)
        return values

    @service_time(_batch_of("writes"))
    def rpc_tx_multiwrite(self, tid: str, writes, last: bool = False, notify: Optional[str] = None, fresh: bool = True):
        tx = self._ensure_tx(tid, fresh)
        for oid, data in writes:
            tx.buffer_write(oid, data)
        if last:
            return (yield from self._commit_tx(tx, notify=notify))
        return "OK"

    def rpc_tx_read_cset_objects(
        self,
        tid: str,
        oid: ObjectId,
        limit: Optional[int] = None,
        newest_first: bool = True,
        fresh: bool = True,
    ):
        """Read a cset and the objects its elements name, in one RPC.

        Elements must be ObjectIds or tuples whose last item is an
        ObjectId (e.g. ``(seqno, oid)`` for ordered timelines); tuples are
        ordered by their leading sort key.
        """
        tx = self._ensure_tx(tid, fresh)
        tx.require_active()
        cset = yield from self._read_value(tx, oid)
        members = list(cset.members())
        try:
            elems = sorted(members, reverse=newest_first)
        except TypeError:
            elems = sorted(members, key=repr, reverse=newest_first)
        if limit is not None:
            elems = elems[:limit]
        # Charged here, not declared: the cost is the fan-out, known only
        # once the cset has been read.
        yield self.cpu.hold(self._batch_cost(1 + len(elems)))
        out = []
        for elem in elems:
            target = elem if isinstance(elem, ObjectId) else elem[-1]
            value = yield from self._read_value(tx, target)
            out.append((elem, value))
        return out

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _trace_read(self, tx: Transaction, oid: ObjectId, value) -> None:
        if self.trace is None:
            return
        # Only pure snapshot reads are checkable against the site model:
        # skip reads shadowed by the transaction's own buffer.
        if any(u.oid == oid for u in tx.updates):
            return
        recorded = value.counts() if isinstance(value, CSet) else value
        self.trace.record_read(
            TracedRead(tx.tid, self.site_id, tx.start_vts, oid, recorded)
        )
