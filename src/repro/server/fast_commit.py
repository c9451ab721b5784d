"""Fast commit (paper Fig 11, §5.4).

A transaction whose write-set (regular objects only; cset updates are
excluded) contains only objects whose preferred site is local commits
with a purely local check: every written object must be unmodified since
``startVTS`` and unlocked (a locked object is mid-slow-commit).  The
commit assigns the next local sequence number, applies the updates to the
object histories, advances ``CommittedVTS_i[i]``, flushes the commit
record (group commit), and forks asynchronous propagation.
"""

from __future__ import annotations

from typing import Optional

from ..core.transaction import CommitRecord, Transaction
from ..core.versions import Version
from ..obs import trace as span
from ..spec.checker import TracedTx

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"


class FastCommitMixin:
    def rpc_tx_commit(self, tid: str, notify: Optional[str] = None, allow_fresh: bool = True, ck: Optional[str] = None):
        self._span(tid, span.COMMIT_RPC_BEGIN)
        # Charged here, not declared: the milestones either side of the
        # charge are what obs/critical_path.py telescopes into its "cpu" stage.
        yield self.cpu.hold(self.costs.commit_op)
        self._span(tid, span.COMMIT_CPU)
        # ``ck`` is the client's at-most-once idempotency token: a commit
        # whose reply was lost can be re-asked safely -- the cached
        # outcome is returned instead of re-running the commit (which,
        # the transaction being gone, would otherwise "commit" a fresh
        # empty transaction and report a bogus COMMITTED).
        landed = None
        if ck is not None:
            while tid in self._commit_inflight:
                # A duplicate overtook the original request (delayed in
                # the network past the client timeout): wait until it lands.
                yield self._commit_inflight[tid]
            cached = self._commit_outcomes.get(ck)
            if cached is not None:
                return cached[0]
            landed = self._commit_inflight[tid] = self.kernel.event()
        try:
            # A commit may be the transaction's first server contact (an
            # empty transaction): start it like any piggybacked first
            # access.  But if the *client* already issued accesses
            # (allow_fresh=False) and we don't know the tid, this server
            # is a replacement that lost the transaction's buffered
            # updates -- fail loudly rather than silently committing an
            # empty transaction.
            if not allow_fresh and tid not in self._txs:
                self._get_tx(tid)  # raises TransactionStateError
            tx = self._ensure_tx(tid)
            status = yield from self._commit_tx(tx, notify=notify)
            if ck is not None:
                self._commit_outcomes[ck] = (status, self.kernel.now)
        finally:
            if landed is not None:
                del self._commit_inflight[tid]
                landed.trigger()
        self._span(tid, span.COMMIT_RPC_END, status=status)
        return status

    def _commit_tx(self, tx: Transaction, notify: Optional[str] = None):
        """Fig 11 commitTx: dispatch to fast or slow commit."""
        tx.require_active()
        started_at = self.kernel.now
        if tx.is_read_only:
            tx.mark_committed_read_only(at=self.kernel.now)
            self._drop_tx(tx.tid)
            self.stats.inc("commits")
            self.stats.inc("read_only_commits")
            if self._tracer is not None:
                # Read-only commits emit no terminal span; mark the trace
                # complete so the ring buffer may evict it.
                self._tracer.finish(tx.tid)
            return COMMITTED
        writeset = tx.write_set
        phase = self._refusal()
        if phase is None:
            preferred_site = self.config.preferred_site
            site_id = self.site_id
            local = {oid: site_id for oid in writeset if preferred_site(oid) == site_id}
            if not self._leases_held(tx, local):
                phase = "lease_suspended"
        if phase is not None:
            status = self._abort(tx, phase)
        elif len(local) == len(writeset):
            status = yield from self._fast_commit(tx, local, notify)
        else:
            status = yield from self._slow_commit(tx, notify)
        self._drop_tx(tx.tid)
        if status == COMMITTED:
            # Server-side commit-path latency (conflict check + 2PC if
            # slow + WAL flush); the client-observed Fig 18 latency adds
            # one local RPC round trip on top.
            self._commit_latency.observe(self.kernel.now - started_at)
        return status

    def _refusal(self) -> Optional[str]:
        """§5.7 admission for an update commit or a prepare vote: the
        abort phase that refuses it at this site now, or None.

        * ``site_inactive``: the site is under re-integration; its
          surviving prefix is still being finalized, and a seqno handed
          out now could be truncated as part of the abandoned suffix.
        * ``site_synchronizing``: a replacement server forgot its
          predecessor's prepare locks (they are volatile); until
          propagation catches up to the takeover frontier, an admitted
          write could conflict with a transaction the old server voted
          YES for whose commit record is still in flight."""
        if not self.config.is_active(self.site_id):
            return "site_inactive"
        if not self.commit_admission_open():
            return "site_synchronizing"
        return None

    def _abort(self, tx: Transaction, phase: str) -> str:
        """Mark ``tx`` aborted, count it and emit its ABORT span."""
        tx.mark_aborted()
        self.stats.inc("aborts")
        self._span(tx.tid, span.ABORT, phase=phase)
        return ABORTED

    def _leases_held(self, tx: Transaction, holders) -> bool:
        """Whether the preferred-site leases this commit relies on are
        held (§5.7): each written object's by the site ``holders`` maps
        it to (this site for a fast commit, the voter for a slow one) and,
        under partial replication, every touched container's, cset adds
        included -- a hand-over copies a joining replica from the frontier
        it read at the revoke, so a later add would reach it trimmed.
        Checked at dispatch and again under the commit lock: the
        hand-over grants on the premise that nothing commits under a
        revoked lease, and a new holder never saw the old one's prepare
        locks (DESIGN.md §13)."""
        holds_lease = self.config.holds_preferred_lease
        for oid, site in holders.items():
            if not holds_lease(oid.container, site):
                return False
        if self.config.partial:
            preferred_site = self.config.preferred_site
            for oid in tx.touched:
                if not holds_lease(oid.container, preferred_site(oid)):
                    return False
        return True

    def _commit_locked(self, tx: Transaction, holders, check_conflicts: bool):
        """The serialized step fast and slow commit both end in (Fig 11,
        Fig 12): under the commit lock, charge ``commit_critical``, check
        for write-write conflicts (fast commit only; a slow commit's
        voters checked theirs), re-check the leases and apply.  Returns
        ``(None, version)``, or ``(phase, None)`` for an abort."""
        yield self.commit_lock.acquire()
        self._span(tx.tid, span.COMMIT_LOCK_ACQUIRED)
        try:
            # The contended region that bounds per-site write throughput
            # (§8.3).  ``unmodified`` is O(sites) per object (per-site
            # max-seqno summary), so it does not grow with history length.
            yield self.kernel.timeout(self.costs.commit_critical)
            if check_conflicts:
                unmodified = self.histories.unmodified
                locked = self.locked
                delayed = self._is_access_delayed
                start_vts = tx.start_vts
                for oid in tx.write_set:
                    if not unmodified(oid, start_vts) or oid in locked or delayed(oid):
                        if self.profiler is not None:
                            self.profiler.record_conflict(oid)
                        return ("fast_commit", None)
            if not self._leases_held(tx, holders):
                return ("lease_suspended", None)
            return (None, self._apply_local_commit(tx))
        finally:
            self.commit_lock.release()

    def _fast_commit(self, tx: Transaction, holders, notify: Optional[str] = None):
        """Fig 11 fastCommit."""
        phase, version = yield from self._commit_locked(tx, holders, True)
        if phase is not None:
            return self._abort(tx, phase)
        self._span(tx.tid, span.FAST_COMMIT, seqno=version.seqno)
        yield from self._finish_local_commit(tx, version, notify)
        return COMMITTED

    def _apply_local_commit(self, tx: Transaction) -> Version:
        """The atomic region of Fig 11: assign seqno, apply updates,
        advance CommittedVTS.  Runs with no yields (hence atomically)."""
        self.curr_seqno += 1
        version = Version(self.site_id, self.curr_seqno)
        profiler = self.profiler
        if profiler is not None:
            preferred_site = self.config.preferred_site
            for oid in tx.touched:
                profiler.record_write(oid, preferred_site(oid) == self.site_id)
        self.histories.apply(tx.updates, version)
        self.committed_vts = self.committed_vts.with_entry(self.site_id, self.curr_seqno)
        self.got_vts = self.got_vts.with_entry(self.site_id, self.curr_seqno)
        if self.trace is not None:
            self.trace.record_commit(
                TracedTx(
                    tid=tx.tid,
                    site=self.site_id,
                    start_vts=tx.start_vts,
                    version=version,
                    updates=list(tx.updates),
                    write_set=tx.write_set,
                )
            )
            self.trace.record_site_commit(self.site_id, version)
        return version

    def _finish_local_commit(self, tx: Transaction, version: Version, notify: Optional[str]):
        """Durability (WAL flush / group commit) then async propagation."""
        record = CommitRecord(
            tid=tx.tid,
            site=self.site_id,
            seqno=version.seqno,
            start_vts=tx.start_vts,
            updates=list(tx.updates),
            committed_at=self.kernel.now,
            version=version,
        )
        self._records_by_version[version] = record
        for oid in tx.touched:
            self.storage.cache.put(oid, True)
        yield self.storage.log.append(("local_commit", record), commit_tid=tx.tid)
        self._span(tx.tid, span.DISKLOG_FLUSH)
        tx.mark_committed(version, at=self.kernel.now)
        self.stats.inc("commits")
        self._enqueue_propagation(record, notify)
        self._drain_pending()
