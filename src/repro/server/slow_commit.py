"""Slow commit (paper Fig 12, §5.5).

Transactions that write a regular object whose preferred site is remote
run a two-phase commit among the *preferred sites* of the written objects
(not across all replicas).  Phase 1 asks each such site to vote: YES and
lock the objects if they are unmodified and unlocked, NO otherwise.  If
all vote YES the coordinator commits exactly like fast commit; otherwise
it tells the YES voters to release their locks.  Remote sites release a
committed transaction's locks when it propagates to them (Fig 13).

§6 notes slow commit can starve under repeated conflicting fast commits
and sketches a fix -- briefly delaying fast-commit access to objects that
aborted a slow commit; the authors did not implement it, we do (behind
``anti_starvation``), since it is fully specified in one paragraph.

Failure hardening (DESIGN.md §9).  The paper's pseudocode assumes
messages arrive; under loss the naive protocol leaks locks two ways:

* a participant's YES reply is lost, the coordinator counts the timeout
  as a NO vote and never tells that participant anything -- its locks
  would be held forever (an aborted transaction never propagates, so the
  Fig 13 release path never fires);
* the coordinator's abort notification itself is lost.

Three mechanisms close the gap, all keyed by a per-transaction decision
table that makes duplicate prepares/releases idempotent:

1. the coordinator records its decision *before* notifying anyone, sends
   the abort release to **every contacted site** (not just recorded YES
   voters), and retries each release as an acked RPC until delivered or
   the participant's lock lease has surely expired;
2. each prepare lock carries the coordinator's site and a lease; when
   the lease expires the participant's sweeper *asks the coordinator*
   for the decision (``tx_decision``) rather than unilaterally dropping
   the lock -- presumed abort: a lock may only be released early if the
   decision could not have been COMMIT;
3. COMMIT outcomes need no extra delivery: propagation is reliably
   retransmitted (Fig 13) and releases the participant's locks when the
   commit record arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.objects import ObjectId
from ..core.transaction import Transaction
from ..core.versions import VectorTimestamp
from ..net import RpcError, service_time
from ..obs import trace as span
from ..sim import AllOf

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"
#: ``tx_decision`` answers when the coordinator is still running the 2PC.
PENDING = "PENDING"
#: ``tx_decision`` answers when the coordinator has no trace of the tid:
#: the transaction was never durably committed (presumed abort).
UNKNOWN = "UNKNOWN"


@dataclass
class PreparedLock:
    """Participant-side bookkeeping for one prepared transaction."""

    coord_site: int
    deadline: float
    #: The oids this transaction holds in ``server.locked`` -- the lock
    #: table's index by owner, so a release never scans the table.
    oids: List[ObjectId]
    #: An orphan-decision query is already in flight; don't spawn another.
    querying: bool = False


class SlowCommitMixin:
    def _slow_commit(self, tx: Transaction, notify: Optional[str] = None):
        """Fig 12 slowCommit: 2PC among preferred sites of written objects."""
        self.stats.inc("slow_commit_attempts")
        placement = {oid: self.config.preferred_site(oid) for oid in tx.write_set}
        sites = sorted(set(placement.values()))
        self._span(tx.tid, span.SLOW_COMMIT_PREPARE, participants=len(sites))
        span_ctx = self._deep_ctx(tx.tid, span.SLOW_COMMIT_PREPARE)

        def ask(site: int):
            oids = [o for o in sorted(placement, key=str) if placement[o] == site]
            try:
                vote = yield from self.call(
                    self.peers[site],
                    "prepare",
                    tid=tx.tid,
                    oids=oids,
                    start_vts=tx.start_vts,
                    coord_site=self.site_id,
                    timeout=self._rpc_timeout,
                    span=span_ctx,
                )
                return (site, bool(vote))
            except RpcError:
                return (site, False)

        procs = [
            self.spawn_child(ask(site), name="prepare:%s@%d" % (tx.tid, site))
            for site in sites
        ]
        votes: Dict[int, bool] = dict((yield AllOf(procs)))
        self._deep(tx.tid, span.COMMIT_VOTES, yes=sum(votes.values()), asked=len(votes))

        phase = "slow_commit"
        if all(votes.values()):
            # Re-checks each voter's lease: a voter whose lease moved
            # since its vote never told the new holder about its locks.
            phase, version = yield from self._commit_locked(tx, placement, False)
        if phase is None:
            # Decision point: participants learn COMMIT from propagation
            # (reliably retransmitted), orphan queries from this table.
            self._record_decision(tx.tid, COMMITTED)
            self._release_locks(tx.tid)  # locks at this server (Fig 12)
            self._span(tx.tid, span.SLOW_COMMIT_COMMIT, seqno=version.seqno)
            yield from self._finish_local_commit(tx, version, notify)
            self.stats.inc("slow_commits")
            return COMMITTED

        self._record_decision(tx.tid, ABORTED)
        if self.chaos_bug == "leak_prepare_locks":
            # Planted bug (harness self-test): the pre-hardening abort
            # path -- fire-and-forget release to recorded YES voters
            # only, so a participant whose YES reply was lost keeps its
            # locks forever.
            for site, vote in votes.items():
                if vote:
                    self.cast(self.peers[site], "release_prepare", tid=tx.tid)
        else:
            # A timeout/RpcError vote is indistinguishable from "voted
            # YES, reply lost": the participant may hold locks.  Deliver
            # the abort to every contacted site, reliably.
            for site in votes:
                self.spawn_child(
                    self._deliver_abort(tx.tid, site),
                    name="release:%s@%d" % (tx.tid, site),
                )
        return self._abort(tx, phase)

    def _deliver_abort(self, tid: str, site: int):
        """Retry the abort release to one participant until acked or its
        lock lease has surely expired (after which its own sweeper will
        query us and learn the ABORT from the decision table)."""
        deadline = self.kernel.now + self.leases.lock_lease
        while True:
            try:
                yield from self.call(
                    self.peers[site],
                    "release_prepare",
                    tid=tid,
                    outcome=ABORTED,
                    timeout=self._rpc_timeout,
                )
                return
            except RpcError:
                if self.kernel.now >= deadline:
                    return
                yield self.kernel.timeout(0.05)

    def _record_decision(self, tid: str, outcome: str) -> None:
        """At-most-once decision table: first write wins; retained for
        ``leases.outcome_retention`` so retransmitted prepares/releases
        and orphan queries resolve consistently."""
        if tid not in self._decisions:
            self._decisions[tid] = (outcome, self.kernel.now)

    # ------------------------------------------------------------------
    # Participant side
    # ------------------------------------------------------------------
    @service_time("commit_op")
    def rpc_prepare(
        self,
        tid: str,
        oids: List[ObjectId],
        start_vts: VectorTimestamp,
        coord_site: Optional[int] = None,
    ):
        """Fig 12 prepare: vote YES and lock, or NO.  Idempotent: a
        duplicate prepare for an already-prepared tid refreshes the lock
        lease and repeats the YES; one for a decided tid votes NO
        without re-locking."""
        if tid in self._decisions:
            return False  # decision already delivered; never re-lock
        if tid in self._prepared:
            self._prepared[tid].deadline = self.kernel.now + self.leases.lock_lease
            return True
        if self._refusal() is not None:
            return False  # a YES now could double-grant a lock (§5.7)
        for oid in oids:
            if self.config.preferred_site(oid) != self.site_id:
                return False  # stale coordinator cache; refuse (§5.1)
            if not self.config.holds_preferred_lease(oid.container, self.site_id):
                return False
            if oid in self.locked and self.locked[oid] != tid:
                if self.profiler is not None:
                    self.profiler.record_conflict(oid)
                return False
            if not self.histories.unmodified(oid, start_vts):
                # A fast commit beat this slow commit; mark the object so
                # the retry can win (§6 anti-starvation).
                if self.profiler is not None:
                    self.profiler.record_conflict(oid)
                self.mark_slow_commit_abort([oid])
                return False
        for oid in oids:
            self.locked[oid] = tid
        self._prepared[tid] = PreparedLock(
            coord_site=self.site_id if coord_site is None else coord_site,
            deadline=self.kernel.now + self.leases.lock_lease,
            oids=list(oids),
        )
        return True

    def rpc_release_prepare(self, tid: str, outcome: str = ABORTED):
        """Acked decision delivery (the coordinator retries this until it
        gets the ack).  Idempotent via the decision table."""
        self._apply_release(tid, outcome)
        return "OK"

    def on_release_prepare(self, src: str, tid: str, outcome: str = ABORTED):
        self._apply_release(tid, outcome)

    def _apply_release(self, tid: str, outcome: str) -> None:
        self._record_decision(tid, outcome)
        self._release_locks(tid)

    def rpc_tx_decision(self, tid: str):
        """Answer a participant's orphan-lock query (coordinator side).

        COMMIT decisions survive coordinator replacement: the commit
        record is WAL-durable and restored into ``_records_by_version``,
        so a replacement still answers COMMITTED.  A tid with no trace
        anywhere was never durably committed -- either never decided
        (coordinator crashed mid-2PC; its 2PC died with it) or fenced at
        takeover and abandoned -- so UNKNOWN licenses a presumed-abort
        release."""
        entry = self._decisions.get(tid)
        if entry is not None:
            return entry[0]
        if tid in self._txs:
            return PENDING
        # A coordinator's committed record is one of its own commits.
        for record in self._records_by_version.run(self.site_id):
            if record.tid == tid:
                return COMMITTED
        return UNKNOWN

    def _resolve_orphan_lock(self, tid: str):
        """Sweeper child: a prepare lock outlived its lease; ask the
        coordinator what happened.  Only ABORTED/UNKNOWN answers release
        the lock (presumed abort -- the decision cannot have been
        COMMIT); COMMITTED/PENDING answers extend the lease and wait for
        propagation/the decision delivery to release it normally."""
        info = self._prepared.get(tid)
        if info is None:
            return
        info.querying = True
        try:
            decision = yield from self.call(
                self.peers[info.coord_site],
                "tx_decision",
                tid=tid,
                timeout=self._rpc_timeout,
            )
        except RpcError:
            # Coordinator unreachable: keep the lock (the decision may
            # have been COMMIT) and retry one sweep later.
            info.deadline = self.kernel.now + self.leases.sweep_interval
            info.querying = False
            return
        info.querying = False
        if decision in (ABORTED, UNKNOWN):
            self._record_decision(tid, ABORTED)
            held = self._release_locks(tid)
            self.obs.registry.counter(
                "locks.leaked_released", site=self.site_id
            ).inc(held)
        else:
            info.deadline = self.kernel.now + self.leases.lock_lease

    def _release_locks(self, tid: str) -> int:
        """Drop ``tid``'s prepare locks, if it holds any here (every
        remote commit asks; almost none does).  Returns how many."""
        info = self._prepared.pop(tid, None)
        if info is None:
            return 0
        for oid in info.oids:
            self.locked.pop(oid, None)
        return len(info.oids)

    # ------------------------------------------------------------------
    # Anti-starvation (§6, optional)
    # ------------------------------------------------------------------
    def mark_slow_commit_abort(self, oids) -> None:
        """Delay fast-commit access to ``oids`` briefly so the next slow
        commit attempt can win."""
        if not self.anti_starvation:
            return
        until = self.kernel.now + self.anti_starvation_delay
        for oid in oids:
            self._delayed_until[oid] = until

    def _is_access_delayed(self, oid: ObjectId) -> bool:
        until = self._delayed_until.get(oid)
        if until is None:
            return False
        if self.kernel.now >= until:
            del self._delayed_until[oid]
            return False
        return True
