"""Failure handling (paper §5.7).

Three mechanisms:

* **Server replacement.**  The transaction log lives in the site's
  replicated cluster storage; a replacement server rebuilds its state
  from the current checkpoint plus the log after it and resumes propagation of
  committed-but-not-fully-propagated transactions.  It is then caught up
  from the live sites (:meth:`SiteRecoveryCoordinator.catch_up`, the one
  routine every recovery protocol uses to feed a server records).

* **Site removal (aggressive option).**  When a whole site fails, the
  configuration switches to one excluding it.  A
  transaction x of the failed site *survives* iff x, every transaction
  that causally precedes x, and every transaction of the failed site with
  a smaller seqno reached some surviving site.  Non-surviving replicated
  data is discarded; propagation of survivors is completed; the failed
  site's containers get a new preferred site.

* **Site re-integration.**  The returning site first discards its
  non-surviving transactions and synchronizes with the surviving sites,
  then takes back the preferred-site role for its containers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.history import SiteHistories
from ..core.transaction import CommitRecord, RecordIndex
from ..core.versions import VectorTimestamp, Version
from ..sim import AllOf


class RecoveryMixin:
    """Server-side recovery hooks (run on/against a Walter server).

    ``chaos_bug`` is a fault-injection hook used only by the chaos
    harness's self-test (tests/chaos): setting it to a known name makes
    recovery deliberately unsafe so the harness can prove its oracles
    catch the resulting violations.  It is never set in production
    deployments.
    """

    #: Recognized deliberate-bug names for harness self-tests.
    #: ``leak_prepare_locks`` reverts the commit-path hardening (abort
    #: releases cast to YES voters only, no orphan-lock resolution) so
    #: the ``no-leaked-locks`` oracle can be shown to catch the leak.
    CHAOS_BUGS = ("skip_resume_propagation", "leak_prepare_locks")
    chaos_bug = None

    #: Commit-admission barrier for replacement servers (§5.7).  The
    #: prepared-lock table is volatile -- prepares are never WAL-logged
    #: -- so a takeover forgets every lock the predecessor granted.  A
    #: coordinator the predecessor voted YES for may have committed and
    #: be mid-propagation; until the replacement's GotVTS dominates what
    #: the live sites had committed at takeover, admitting a fast commit
    #: or voting YES on a prepare could commit a write-write conflict
    #: right over that in-flight transaction.
    _sync_barrier_vts: Optional[VectorTimestamp] = None

    def set_sync_barrier(self, target: VectorTimestamp) -> None:
        """Block commit admission until ``GotVTS`` dominates ``target``
        (a no-op if it already does)."""
        if not self.got_vts.dominates(target):
            self._sync_barrier_vts = target

    def commit_admission_open(self) -> bool:
        """False while a replacement is still synchronizing: propagation
        has not yet redelivered everything the rest of the system had
        committed when this server took over."""
        barrier = self._sync_barrier_vts
        if barrier is None:
            return True
        if self.got_vts.dominates(barrier):
            self._sync_barrier_vts = None
            return True
        return False

    # ------------------------------------------------------------------
    # Replacement-server restart
    # ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        """What a checkpoint captures (§6).

        Histories are checkpointed as their own state (suffix entries
        plus cset GC bases) rather than rebuilt from commit records at
        restore: the record map is watermark-pruned, so it no longer
        covers the full object state.  The storage deep-copies."""
        return {
            "curr_seqno": self.curr_seqno,
            "committed_vts": list(self.committed_vts),
            "got_vts": list(self.got_vts),
            "histories": self.histories.dump(),
            "records": self._records_by_version,
            "visible_prefix": self._visible_prefix,
            "frontiers": (self._ack_frontier, self._visible_frontier, self._ds_through),
            "finalized": self._finalized,
        }

    def restore_from_storage(self, resume_propagation: bool = True) -> int:
        """Rebuild Fig 9 state from the preload image, the storage's
        current checkpoint and the log after it; returns the number of
        log entries replayed.

        ``resume_propagation=False`` is used for site re-integration: the
        returning server must NOT re-propagate its own logged commits,
        because the suffix beyond the surviving bound was abandoned by
        the removal configuration (§4.4) -- resuming would resurrect
        abandoned transactions at the survivors.  (Everything of its own
        that *did* survive was already committed at every survivor by the
        removal protocol, so there is nothing to resume.)"""
        state, suffix = self.storage.recover()
        # Start from the preload image, the initial durable state.
        self.histories = SiteHistories()
        for hist in self.storage.image.values():
            if not self.config.partial or self.config.replicated_at(hist.oid, self.site_id):
                self.histories.adopt(hist)
        frontier = self.storage.image_seqno
        self.got_vts = VectorTimestamp.zeros(len(self.got_vts)).with_entry(0, frontier)
        self.committed_vts = self.got_vts
        self.curr_seqno = self._visible_prefix = frontier if self.site_id == 0 else 0
        if state is not None:
            self.curr_seqno = state["curr_seqno"]
            self.committed_vts = VectorTimestamp(state["committed_vts"])
            self.got_vts = VectorTimestamp(state["got_vts"])
            self._records_by_version = RecordIndex(state["records"])
            self._visible_prefix = state["visible_prefix"]
            self._ack_frontier, self._visible_frontier, self._ds_through = state["frontiers"]
            self._finalized = state["finalized"]
            # The history dump is taken atomically with the vectors, so
            # over the image it is exactly the applied state at GotVTS
            # (including any cset bases the GC folded, which records
            # cannot rebuild).
            self.histories.install(state["histories"])
            # Everything the checkpoint holds is durable, applies that
            # had not landed when it was taken included: ACK them.
            for origin, got in enumerate(self.got_vts):
                if origin != self.site_id and got > self._ack_frontier[origin][0]:
                    self._ack_frontier[origin] = self._frontier_at(Version(origin, got))
        for payload in suffix:
            self._replay_log_record(payload)
        if resume_propagation and self.chaos_bug != "skip_resume_propagation":
            self._resume_propagation()
        return len(suffix)

    def _replay_log_record(self, payload: tuple) -> None:
        """Re-perform one WAL entry, a ``(kind, body)`` pair: the record
        of a ``local_commit``, the chunk of a ``remote_apply``, the
        version list of a ``remote_commit``, the tid of a ``ds_durable``
        (nothing to redo: a resumed record gathers its ACKs again) or
        ``globally_visible`` (logged in seqno order), the history dump
        of a ``container_backfill`` and ``(failed_site, survive_upto,
        epoch)`` of a ``recovery_finalize``.  What was logged is durable, so the
        ACK and VISIBLE frontiers follow the replayed records."""
        kind, body = payload
        if kind == "local_commit":
            record: CommitRecord = body
            version = record.version
            if self.got_vts[record.site] >= record.seqno:
                return  # already covered by the checkpoint
            self.curr_seqno = max(self.curr_seqno, record.seqno)
            self.histories.apply(record.updates, version)
            self.committed_vts = self.committed_vts.with_entry(record.site, record.seqno)
            self.got_vts = self.got_vts.with_entry(record.site, record.seqno)
            self._records_by_version[version] = record
        elif kind == "remote_apply":
            # One entry per applied chunk: the checkpoint may cover its
            # head and not its tail, so skip record by record.
            for record in body:
                if self.got_vts[record.site] >= record.seqno:
                    continue
                self.histories.apply(record.updates, record.version)
                self.got_vts = self.got_vts.with_entry(record.site, record.seqno)
                self._records_by_version[record.version] = record
                self._ack_frontier[record.site] = (record.seqno, record.tid)
        elif kind == "remote_commit":
            for version in body:
                if self.committed_vts[version.site] < version.seqno:
                    self.committed_vts = self.committed_vts.with_entry(
                        version.site, version.seqno
                    )
                    self._visible_frontier[version.site] = self._frontier_at(version)
        elif kind == "container_backfill":
            # Replica-join copy (DESIGN.md §13): the only durable source
            # of the history propagation trimmed away.
            self.histories.install(body)
        elif kind == "globally_visible":
            # Usually the next own record; after a re-integration the
            # prefix jumped over the removal's survivors.
            seqno = self._visible_prefix + 1
            while seqno <= self.curr_seqno and not self._holds(self.site_id, seqno, body):
                seqno += 1
            if seqno <= self.curr_seqno:
                self._visible_prefix = seqno
        elif kind == "recovery_finalize":
            # Re-perform the truncation at the same point in log order it
            # originally happened.  Without this marker a full-log replay
            # resurrects an abandoned suffix: the dead local_commit
            # records are still in the log, and by the time this server
            # restarts the survivors may have sealed those seqnos with
            # no-ops -- so a later finalize round sees nothing beyond the
            # surviving bound and never re-truncates.
            self._discard_abandoned_suffix(*body)

    def seal_seqno_holes(self) -> int:
        """Fill own-site seqno holes with no-op commits.

        A hole is a seqno in ``(GotVTS[self], CurrSeqNo]``: handed out by
        a previous incarnation of this server but carried by no surviving
        transaction -- either fenced at a storage takeover before
        becoming durable, or abandoned by aggressive site removal and
        truncated at re-integration.  The seqno cannot be reused (the
        dead transaction may have been observed before it was lost, and
        traces key on versions), but leaving a gap would wedge every
        receiver forever: the propagation guard demands a contiguous
        seqno stream per origin.  A no-op commit record propagates
        through the normal path and plugs the gap at every site."""
        sealed = 0
        while self.got_vts[self.site_id] < self.curr_seqno:
            seqno = self.got_vts[self.site_id] + 1
            version = Version(self.site_id, seqno)
            record = CommitRecord(
                tid="noop-%d-%d" % (self.site_id, seqno),
                site=self.site_id,
                seqno=seqno,
                start_vts=self.committed_vts,
                updates=[],
                committed_at=self.kernel.now,
                version=version,
            )
            self.got_vts = self.got_vts.with_entry(self.site_id, seqno)
            self.committed_vts = self.committed_vts.with_entry(self.site_id, seqno)
            self._records_by_version[version] = record
            self.storage.log.append(("local_commit", record), commit_tid=record.tid)
            if self.trace is not None:
                from ..spec.checker import TracedTx

                self.trace.record_commit(
                    TracedTx(record.tid, self.site_id, record.start_vts,
                             version, [], frozenset())
                )
                self.trace.record_site_commit(self.site_id, version)
            self._enqueue_propagation(record, notify=None)
            self.stats.sealed_holes += 1
            sealed += 1
        if sealed:
            self._drain_pending()
        return sealed

    def _resume_propagation(self) -> None:
        """Re-enqueue local commits that are not yet globally visible --
        receivers treat duplicates idempotently and re-ACK."""
        for record in self._records_by_version.run(self.site_id, self._visible_prefix):
            self._enqueue_propagation(record, notify=None)
            self.stats.resumed_propagations += 1

    # ------------------------------------------------------------------
    # RPCs used by the site-recovery coordinator
    # ------------------------------------------------------------------
    def rpc_container_export(self, cid: str):
        """Dump one container's retained histories -- the coordinator
        copies them to a site joining the replica set (partial
        replication; a non-replica only ever received trimmed records)."""
        return self.histories.export_container(cid)

    def rpc_container_install(self, cid: str, dump):
        """Install a replica-join copy, WAL-logged (propagation trimmed
        the container out of every record sent here before the join) and
        acked after the flush; idempotent, so the coordinator retries."""
        self.histories.install(dump)
        yield self.storage.log.append(("container_backfill", dump))
        return "OK"

    def rpc_recovery_report(self):
        """What this site has received/committed, per origin site.
        ``durable`` is what another site may commit on this site's word:
        ``committed`` with the own-stream entry held at the DS-durable
        prefix while a commit beyond it is in flight (a remote site
        commits a transaction only once it is DS-durable)."""
        durable = list(self.committed_vts)
        if self._ds_prefix + 1 in self._trackers:
            durable[self.site_id] = min(durable[self.site_id], self._ds_prefix)
        return {
            "site": self.site_id,
            "got": list(self.got_vts),
            "committed": list(self.committed_vts),
            "durable": durable,
        }

    def rpc_recovery_fetch(self, site: int, from_seqno: int, to_seqno: int):
        """Return the epoch of the last finalize of ``site`` applied here
        and the commit records of ``site`` in (from, to]."""
        epoch = self._finalized.get(site, (0, 0))[0]
        return epoch, self._records_by_version.run(site, from_seqno, to_seqno)

    def rpc_recovery_deliver(self, records: List[CommitRecord], epoch: int):
        """Apply fetched records (in order) as if propagated normally:
        re-trimmed to this site (a donor's copy, or one the coordinator
        merged from several donors, may carry data this site does not
        replicate, and recovery must not widen what partial replication
        placed here), they take the propagation applier, which ACKs the
        origin its frontier once they are durable.

        "As if propagated" includes the got guard: a record whose causal
        dependencies (startVTS) are not yet applied here is parked in
        ``_pending_remote`` exactly like normal propagation would park
        it.  Applying it immediately would insert it into this site's
        histories out of causal order -- and regular-object reads
        resolve "latest visible version" by application order, so an
        origin-grouped recovery sync could serve a causally overwritten
        value.  Cross-origin dependencies settle as the coordinator's
        per-origin rounds deliver and ``_drain_pending`` releases.

        ``epoch`` is the oldest finalize epoch of the records' origin
        among their sources.  A finalize round reaches the survivors one
        by one, so a source behind this site's last finalize of the
        origin may have sent its abandoned suffix: what lies beyond that
        finalize's bound is dropped (sharded chaos seed 444)."""
        if records:
            applied, bound = self._finalized.get(records[0].site, (0, 0))
            if epoch < applied:
                records = [record for record in records if record.seqno <= bound]
        yield from self._apply_propagate_batch(
            [self._record_for(record, self.site_id) for record in records]
        )
        return "OK"

    def _discard_abandoned_suffix(self, failed_site: int, survive_upto: int,
                                  epoch: int) -> None:
        """Drop every transaction of ``failed_site`` beyond
        ``survive_upto`` from histories and records, lowering the vector
        entries and the propagation frontiers accordingly: a no-op that
        ``seal_seqno_holes`` writes at an abandoned seqno is a new record,
        which no frontier reached before may cover.  Remembers the
        finalize ``epoch`` and bound for recovery deliveries.  Shared by
        ``rpc_recovery_finalize`` (live) and log replay (the durable
        ``recovery_finalize`` marker)."""
        self._finalized[failed_site] = (epoch, survive_upto)

        def survives(version: Version) -> bool:
            return version.site != failed_site or version.seqno <= survive_upto

        for oid in self.histories.known_oids():
            history = self.histories.get(oid)
            keep = [e.version for e in history if survives(e.version)]
            if len(keep) < len(history):  # truncating copies a shared history
                self.histories.history(oid).truncate_versions(keep)
        for record in self._records_by_version.run(failed_site, survive_upto):
            del self._records_by_version[record.version]
        if self.got_vts[failed_site] > survive_upto:
            self.got_vts = self.got_vts.with_entry(failed_site, survive_upto)
        if self.committed_vts[failed_site] > survive_upto:
            # Only a returning site can be here: it committed (in memory)
            # beyond the bound before failing, and those transactions are
            # abandoned by the new configuration (§4.4 aggressive option).
            self.committed_vts = self.committed_vts.with_entry(
                failed_site, survive_upto
            )
        if failed_site == self.site_id:
            self._acked_through = [min(q, survive_upto) for q in self._acked_through]
            self._visible_through = [min(q, survive_upto) for q in self._visible_through]
            self._ds_prefix = min(self._ds_prefix, survive_upto)
            self._visible_prefix = min(self._visible_prefix, survive_upto)
        else:
            bound = self._frontier_at(Version(failed_site, survive_upto))
            for frontiers in (self._ack_frontier, self._visible_frontier):
                if frontiers[failed_site][0] > survive_upto:
                    frontiers[failed_site] = bound
            self._ds_through[failed_site] = min(self._ds_through[failed_site], survive_upto)
            self._ds_heard.pop(failed_site, None)

    def _frontier_at(self, version: Version) -> tuple:
        """The ``(seqno, tid)`` frontier at ``version``; its tid is None
        (nothing a frontier check accepts) if the record is gone."""
        record = self._records_by_version.get(version)
        return (version.seqno, record.tid if record is not None else None)

    def rpc_recovery_finalize(self, failed_site: int, survive_upto: int, epoch: int):
        """Discard non-surviving transactions of ``failed_site`` (those
        with seqno > ``survive_upto``) and commit the survivors here.

        ``epoch`` numbers the finalize round (``LocalConfig.next_epoch``).
        Finalize is the one recovery RPC that is NOT idempotent over
        time: a retried request whose original reply was lost may arrive
        after this site resumed committing, and re-truncating at the
        stale bound would discard freshly committed transactions.  So a
        round no newer than the last one applied here is ignored."""
        if epoch <= self._finalized.get(failed_site, (0, 0))[0]:
            return "OK"
        # Durable first: if this server later rebuilds from its log, the
        # marker repeats the truncation in replay order.
        self.storage.log.append(("recovery_finalize", (failed_site, survive_upto, epoch)))
        self._discard_abandoned_suffix(failed_site, survive_upto, epoch)
        # Commit surviving transactions that were stuck mid-propagation.
        self._ds_through[failed_site] = max(self._ds_through[failed_site], survive_upto)
        if failed_site == self.site_id:
            # Re-integration: this server just truncated its own abandoned
            # suffix; seal the resulting seqno gap before anything new
            # commits here.
            self.seal_seqno_holes()
        self._drain_pending()
        return "OK"

    def rpc_recovery_commit_upto(self, site: int, upto: int):
        """Commit already-delivered transactions of ``site`` through
        ``upto``.  Unlike ``recovery_finalize`` this is purely monotone --
        it never truncates history or lowers vector entries -- so the
        coordinator can use it for catch-up rounds that may race normal
        propagation.

        It raises ``site``'s DS frontier and leaves the commits to the
        normal path: committing directly would bypass the committed
        guard and order this site's commits by origin rather than
        causally -- a reader here could then observe a transaction
        without its causal dependencies (PSI Property 3).
        ``_drain_pending`` commits each record once its guard passes;
        records delivered, or whose dependencies arrive, later commit at
        that point."""
        self._ds_through[site] = max(self._ds_through[site], upto)
        self._drain_pending()
        return "OK"


class SiteRecoveryCoordinator:
    """Drives the aggressive site-removal and re-integration protocols
    and every preferred-site hand-over (:meth:`handover`).

    In the paper this logic lives in the Paxos-replicated configuration
    service; here it is a coordinator object whose methods are simulated
    processes run by the deployment, which applies each decision to the
    shared :class:`~repro.server.LocalConfig` at one simulated instant
    (DESIGN.md §2).
    """

    #: Per-RPC timeout and retry budget.  Coordinator RPCs must survive
    #: transient message loss: losing one request mid-protocol would
    #: otherwise leave the reconfiguration half-applied with no other
    #: mechanism to complete it (the paper puts this logic in the
    #: fault-tolerant configuration service).
    RPC_TIMEOUT = 5.0
    RPC_RETRIES = 8

    def __init__(self, kernel, coordinator_host, server_addresses: Dict[int, str],
                 servers, registry):
        self.kernel = kernel
        self.host = coordinator_host  # any Host able to issue RPCs
        self.server_addresses = dict(server_addresses)
        #: The deployment's server list: a hand-over reads its endpoints'
        #: reports in process when all are up (DESIGN.md Known deviation #5).
        self.servers = servers
        self.registry = registry
        #: Simulated time past which :meth:`_call` raises ``TimeoutError``
        #: instead of sending (a migration's ``within``); None: no deadline.
        self.deadline: Optional[float] = None

    def _call(self, address: str, method: str, **kwargs):
        """RPC with bounded retries on timeout.  Reports are reads and
        deliver/commit_upto are monotone, so resending those is safe;
        finalize is at-most-once per epoch (a late duplicate would
        re-truncate at a stale bound).  Under a :attr:`deadline` no
        attempt waits past it."""
        from ..net import RpcTimeout

        for attempt in range(self.RPC_RETRIES + 1):
            timeout = self.RPC_TIMEOUT
            if self.deadline is not None:
                timeout = min(timeout, self.deadline - self.kernel.now)
                if timeout <= 0:
                    raise TimeoutError("%s to %s: past the deadline" % (method, address))
            try:
                return (yield from self.host.call(address, method, timeout=timeout, **kwargs))
            except RpcTimeout:
                if attempt == self.RPC_RETRIES:
                    raise

    def _reports(self, sites: List[int]):
        """``recovery_report`` of each of ``sites``, in order, asked in
        one parallel round."""
        return (yield AllOf([
            self.kernel.spawn(self._call(self.server_addresses[site], "recovery_report"),
                              name="recovery.report:%d" % site)
            for site in sites
        ]))

    @staticmethod
    def _best(reports, key: str) -> List[int]:
        """Per-origin maximum of one report vector over ``reports``."""
        return [max(column) for column in zip(*(report[key] for report in reports))]

    def _fetch(self, sources: List[int], origin: int, from_seqno: int, to_seqno: int):
        """Records of ``origin``'s stream in (from, to] for a recovery
        delivery: from the origin itself when it is one of the (live)
        ``sources`` -- it keeps full records of its own transactions --
        otherwise merged across the sources' copies.  Under partial
        replication each site stores copies trimmed to its own replica
        set, so no single donor is guaranteed to hold every surviving
        update's data; the union of the copies is the most complete
        record the sources can reconstruct.  Receivers re-trim to their
        own replica sets.  Returns the oldest finalize epoch of ``origin``
        among the sources asked, and the records."""
        merged: Dict[int, CommitRecord] = {}
        epochs = []
        for source in [origin] if origin in sources else sources:
            epoch, records = yield from self._call(self.server_addresses[source],
                "recovery_fetch", site=origin, from_seqno=from_seqno, to_seqno=to_seqno)
            epochs.append(epoch)
            for record in records:
                cur = merged.setdefault(record.seqno, record)
                have = {u.oid for u in cur.updates}
                extra = [u for u in record.updates if u.oid not in have]
                if extra:
                    merged[record.seqno] = CommitRecord(
                        cur.tid, cur.site, cur.seqno, cur.start_vts,
                        list(cur.updates) + extra, cur.committed_at,
                        touched=cur.touched,
                    )
        return min(epochs, default=0), [merged[seqno] for seqno in sorted(merged)]

    def catch_up(self, target: str, sources: List[int],
                 want: Optional[List[int]] = None, commit: bool = True):
        """Generator: bring the server at ``target`` up to the live
        ``sources``: deliver each origin's records it lacks, up to ``want``
        (default: the sources' best got), then -- unless ``commit=False``
        -- commit where it is behind what a source reports DS-durable.
        Delivery takes the receiver's got guard, so causal order holds
        across origins.  Every step is monotone, so a catch-up may race
        normal propagation and may be re-run after an interrupted one."""
        have = yield from self._call(target, "recovery_report")
        reports = []
        if want is None or commit:
            reports = yield from self._reports(sources)
        if want is None:
            want = self._best(reports, "got")
        yield from self._deliver(target, have, sources, want)
        if commit:
            for origin, upto in enumerate(self._best(reports, "durable")):
                if have["committed"][origin] < upto:
                    yield from self._call(target,
                        "recovery_commit_upto", site=origin, upto=upto)

    def _deliver(self, target: str, have, sources: List[int], want: List[int]):
        """Deliver to ``target`` (whose report is ``have``) each origin's
        records it lacks, up to ``want``, fetched in one parallel round."""
        fetches = [
            self.kernel.spawn(self._fetch(sources, origin, have["got"][origin], upto),
                              name="recovery.fetch:%d" % origin)
            for origin, upto in enumerate(want) if have["got"][origin] < upto
        ]
        for epoch, records in ((yield AllOf(fetches)) if fetches else []):
            yield from self._call(target, "recovery_deliver", records=records, epoch=epoch)

    def _live_server(self, site: int):
        down = self.host.network.is_crashed(self.server_addresses[site])
        return None if down else self.servers[site]

    def handover(self, config, cids: List[str], to_site: int, sources: List[int],
                 caller: str, remember_original: bool = False):
        """Generator: the one preferred-site hand-over (§5.7), behind
        migration, site removal and the re-integration hand-back.  The
        caller has revoked the leases of ``cids``; they are granted to
        ``to_site`` once it holds the frontier, the best GotVTS over it
        and ``sources``.  A revoked lease admits no write the target could
        miss (under partial replication not even a cset add, see
        ``_leases_held``).  The target is caught up to the frontier, and
        each container it does not replicate is copied from a replica
        caught up to the same frontier; a container with no replica among
        the sources keeps its lease revoked until one returns.  The
        reports are read in process when every endpoint is up (DESIGN.md
        Known deviation #5), so a target already there that replicates
        every container is granted at once, with no RPC.  A container
        another hand-over granted meanwhile stays with it.  If this raises
        nothing was granted, and the caller re-grants.  Each call is one
        ``recovery.handover_s`` sample, labelled by caller and outcome."""
        started, outcome, cids = self.kernel.now, "failed", list(cids)
        # The target is a source too: a copy must hold its own commits.
        sites = [to_site] + [site for site in sources if site != to_site]
        try:
            servers = [self._live_server(site) for site in sites]
            if None in servers:
                reports = yield from self._reports(sites)
            else:
                reports = [server.rpc_recovery_report() for server in servers]
            frontier = self._best(reports, "got")
            target = self.server_addresses[to_site]
            yield from self._deliver(target, reports[0], sites, frontier)
            caught_up = set()
            for cid in list(cids):
                container = config.container(cid)
                if container.replicated_at(to_site):
                    continue
                donor = next((s for s in sources if container.replicated_at(s)), None)
                if donor is None:
                    cids.remove(cid)
                    continue
                address = self.server_addresses[donor]
                if donor not in caught_up:
                    yield from self._deliver(address, reports[sites.index(donor)],
                                             sites, frontier)
                    caught_up.add(donor)
                dump = yield from self._call(address, "container_export", cid=cid)
                yield from self._call(target, "container_install", cid=cid, dump=dump)
            if self._live_server(to_site) is None:
                raise TimeoutError("hand-over to site %d: target crashed" % to_site)
            for cid in cids:
                # A hand-over running beside this one may have granted it
                # since, admitting writes this frontier does not hold.
                if config.lease_revoked(cid):
                    config.reassign_preferred_site(cid, to_site, remember_original=remember_original)
            outcome = "granted"
        finally:
            self.registry.histogram("recovery.handover_s", caller=caller, outcome=outcome
                                    ).observe(self.kernel.now - started)

    def remove_site(self, config, failed_site: int, reassign_to: int):
        """Generator implementing §5.7 "Handling a site failure"
        (aggressive option).  Returns the surviving seqno bound."""
        # 1. Suspend the failed site's leases: writes to its containers
        #    are postponed until reassignment completes.
        config.suspend_leases_of_site(failed_site)
        config.deactivate_site(failed_site)
        return (yield from self.finish_removal(config, failed_site, reassign_to))

    def finish_removal(self, config, failed_site: int, reassign_to: int):
        """Steps 2-5 of :meth:`remove_site`, after the failed site is
        deactivated.  Re-runnable: a removal that stopped part-way (a
        survivor unreachable) is finished by the site's re-integration,
        which must truncate the site to the bound every survivor agreed
        on, not to one survivor's reading."""
        survivors = config.active_sites()

        # 2. Discover what survives: the largest prefix of the failed
        #    site's transactions present at any surviving site.
        reports = dict(zip(survivors, (yield from self._reports(survivors))))
        survive_upto = max(report["got"][failed_site] for report in reports.values())

        # 2b. "Present at a surviving site" is not a sufficient survival
        #     criterion when replication is partial: survivors store
        #     copies trimmed to their own replica sets, so a record's
        #     metadata can survive while its data survives nowhere (the
        #     failed site's stream reached only non-replicas of a written
        #     container before the crash).  Keeping such a transaction
        #     would let a later re-integration of the failed site -- whose
        #     WAL still holds the data -- diverge from the survivors
        #     forever.  Tighten the bound to the longest prefix in which
        #     every written container has a surviving replica that
        #     received the record.  With no trimmed copy (full
        #     replication) the bound never tightens.
        if survive_upto > 0:
            floor = min(report["got"][failed_site] for report in reports.values())
            best = max(survivors, key=lambda s: reports[s]["got"][failed_site])
            _, candidates = yield from self._fetch([best], failed_site, floor, survive_upto)
            for record in candidates:
                containers = record.touched
                if containers is None:
                    containers = {u.oid.container for u in record.updates}
                data_survives = all(
                    any(
                        config.container(cid).replicated_at(s)
                        and reports[s]["got"][failed_site] >= record.seqno
                        for s in survivors
                    )
                    for cid in containers
                )
                if not data_survives:
                    survive_upto = record.seqno - 1
                    break

        # 3. Complete propagation of survivors: deliver the failed site's
        #    surviving records to the laggards.
        want = [0] * len(self.server_addresses)
        want[failed_site] = survive_upto
        for site in survivors:
            if reports[site]["got"][failed_site] < survive_upto:
                yield from self.catch_up(
                    self.server_addresses[site], survivors, want=want, commit=False)

        # 4. Discard non-survivors and commit survivors everywhere.
        epoch = config.next_epoch()
        for site in survivors:
            yield from self._call(self.server_addresses[site], "recovery_finalize",
                failed_site=failed_site, survive_upto=survive_upto, epoch=epoch)

        # 5. Hand the failed site's containers (leases revoked at step 1)
        #    to ``reassign_to`` -- from the sites active *now*: one back
        #    since step 2 may hold a container's only replica -- and
        #    re-check durability under the shrunk active set.  No holder
        #    to re-grant on failure: the re-integration re-runs this.
        moved = [c.id for c in config.containers() if c.preferred_site == failed_site]
        if moved:
            yield from self.handover(config, moved, reassign_to, config.active_sites(),
                                     "removal", remember_original=True)
        for site in survivors:
            yield from self._call(self.server_addresses[site], "recheck_durability")
        return survive_upto

    def reintegrate_site(self, config, returning_site: int,
                         returning_server_address: str, survive_upto: int):
        """Generator implementing §5.7 "Re-integrating a previously failed
        site": synchronize the returning server, then hand leases back.
        ``survive_upto`` is the bound the site's removal agreed on."""
        survivors = [s for s in config.active_sites() if s != returning_site]
        # The returning site discards transactions the new configuration
        # abandoned (its own seqnos beyond what survived).  The bound is
        # the removal's, not the survivors' current reading: seal no-ops
        # of an earlier, failed re-integration attempt may have reached a
        # survivor, and only a re-seal under a live tracker commits them.
        yield from self._call(returning_server_address, "recovery_finalize",
            failed_site=returning_site, survive_upto=survive_upto, epoch=config.next_epoch())
        # Catch up on everything committed while it was away.  Monotone
        # rounds only: a repeated finalize would discard the seal no-op
        # the one above just created for the abandoned suffix.
        yield from self.catch_up(returning_server_address, survivors)
        config.activate_site(returning_site)
        self.server_addresses[returning_site] = returning_server_address
        # Final round, AFTER activation.  Transactions that committed at
        # the survivors during the round above may have retired their
        # propagation trackers against the old active set, so nothing
        # will resend them; anything committed after activation
        # propagates normally.  If this round fails the deployment
        # re-runs it: nothing else would deliver that window.
        yield from self.catch_up(returning_server_address, survivors)
        # Hand displaced containers back: the holders may have admitted
        # commits the rounds above did not read (chaos seed 613).
        holder_of = {cid: config.container(cid).preferred_site
                     for cid, original in config.displaced.items() if original == returning_site}
        for cid in holder_of:
            config.suspend_lease(cid)
        try:
            if holder_of:
                yield from self.handover(config, list(holder_of), returning_site,
                                         survivors, "handback")
        except BaseException:
            # The containers stay displaced, their holders re-granted.
            for cid, holder in holder_of.items():
                config.reassign_preferred_site(cid, holder)
            raise
        config.restore_displaced(returning_site)
        return survive_upto
