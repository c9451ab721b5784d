"""Asynchronous transaction propagation (paper Fig 13, §5.6).

After a transaction commits locally it is propagated in the background:

1. the origin sends PROPAGATE (in periodic batches -- "each batch remotely
   copies all transactions that committed since the last batch", §6);
2. a receiver applies the updates once it has (a) every transaction that
   causally precedes x per ``x.startVTS`` and (b) all of x's site's
   transactions with smaller seqnos (the GotVTS guard), then ACKs;
3. when enough sites ACKed -- the experiments' definition is *all* sites
   (§8.1), the spec's is f+1 sites per object including its preferred
   site -- the transaction is **disaster-safe durable** and the origin
   broadcasts DS-DURABLE;
4. a receiver *commits* x (advances CommittedVTS, releases x's locks)
   once x is DS-durable and the same causality guards hold against
   CommittedVTS, then replies VISIBLE;
5. when every site replied, x is **globally visible**.

Every step travels batched (DESIGN.md §14): ``propagate_batch`` carries a
delta-encoded run of records (:mod:`repro.net.wire`), and the ACK,
DS-DURABLE and VISIBLE for that run are one ``propagate_ack_batch``,
``ds_durable_batch`` and ``visible_ack_batch`` each.  These four casts
are the whole wire; a lone record is a batch of one.
"""

from __future__ import annotations

import heapq
import operator
from itertools import groupby
from typing import List, Optional, Tuple

from ..core.transaction import CommitRecord
from ..core.updates import touched_oids
from ..core.versions import PlanningClock, VectorTimestamp
from ..net.wire import (
    ack_batch_bytes,
    decode_propagation_batch,
    encode_propagation_batch,
)
from ..obs import trace as span


class PropagationTracker:
    """Origin-side state for one committed transaction in flight.

    ``acked`` and ``visible`` are site bitmasks: bit ``s`` is set once
    site ``s`` acknowledged the PROPAGATE (resp. replied VISIBLE).  An
    origin keeps one tracker per commit until it is globally visible,
    thousands at once on a fan-out, so the tracker is slotted (by hand:
    ``dataclass(slots=True)`` needs Python 3.10) and holds two ints
    where sets would resize as the acks arrive."""

    __slots__ = (
        "record", "client", "acked", "visible", "ds_durable", "globally_visible",
        "committed_at", "ds_at", "awaited",
    )

    def __init__(self, record: CommitRecord, client: Optional[str] = None,
                 acked: int = 0, visible: int = 0, committed_at: float = 0.0):
        self.record = record
        self.client = client
        self.acked = acked
        self.visible = visible
        self.ds_durable = False
        self.globally_visible = False
        self.committed_at = committed_at
        self.ds_at: Optional[float] = None
        #: Sender generation of the batch in flight that waits for this
        #: tracker's DS durability (see ``_send_next``), or None.
        self.awaited: Optional[int] = None


class PropagationBatch:
    """One encoded PROPAGATE payload (:mod:`repro.net.wire` entries) as
    it rides in a ``propagate_batch`` cast.

    The origin encodes a run once per distinct trim and hands the *same*
    payload to every destination with that trim -- all of them under
    full replication, every non-replica under partial replication -- so
    the receive side decodes it once too: the first receiver to open it
    pays for the decode and every later one applies the same record
    objects -- one copy of each ``CommitRecord``/``VectorTimestamp``/
    update list per payload instead of one per destination (7 of them on
    an 8-site fan-out).  Records are never mutated after commit, which is
    what makes the sharing safe.
    Only the entries pickle, so each parallel-executor worker that
    receives a copy decodes it for itself.
    """

    __slots__ = ("entries", "_records")

    def __init__(self, entries: list):
        self.entries = entries
        self._records: Optional[List[CommitRecord]] = None

    def __reduce__(self):
        return (PropagationBatch, (self.entries,))

    def records(self) -> List[CommitRecord]:
        if self._records is None:
            self._records = decode_propagation_batch(self.entries)
        return self._records


class PendingIndex:
    """Parked ``(record, reply_to)`` entries per origin site, ordered by
    seqno: a clock advance releases exactly what it unblocks, however
    much else is parked.  Entries only ever leave from a site's head."""

    __slots__ = ("_entries", "_heaps")

    def __init__(self):
        self._entries = {}  # (site, seqno) -> (record, reply_to)
        self._heaps = {}  # site -> min-heap of that site's parked seqnos

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, record: CommitRecord, reply_to: Optional[str]) -> bool:
        """Park an entry; returns False (a no-op) if this version is
        already parked -- batches can carry duplicates."""
        key = (record.site, record.seqno)
        if key in self._entries:
            return False
        self._entries[key] = (record, reply_to)
        heapq.heappush(self._heaps.setdefault(record.site, []), record.seqno)
        return True

    def get(self, site: int, seqno: int):
        """The entry parked at exactly ``(site, seqno)``, or None."""
        return self._entries.get((site, seqno))

    def sites(self) -> List[int]:
        return list(self._heaps)

    def parked_head(self, site: int) -> Optional[int]:
        """The smallest parked seqno of ``site``, or None."""
        heap = self._heaps.get(site)
        return heap[0] if heap else None

    def pop_head(self, site: int) -> tuple:
        """Pop and return the entry at ``parked_head(site)``."""
        return self._entries.pop((site, heapq.heappop(self._heaps[site])))

    def pop_run(self, site: int, clock: VectorTimestamp) -> List[tuple]:
        """Pop and return, in seqno order, what ``clock`` lets a receiver
        apply of ``site``: the duplicates it already covers, then the
        contiguous run of next seqnos, each admitted against the clock as
        the ones before it advance it (the Fig 13 guard).  Stops at the
        first entry that must wait, so nothing is popped only to be
        parked again."""
        run = []
        heap = self._heaps.get(site)
        plan = PlanningClock(clock)
        while heap:
            seqno = heap[0]
            if seqno > plan[site]:
                record = self._entries[(site, seqno)][0]
                if not plan.admit(site, seqno, record.start_vts):
                    break
            run.append(self.pop_head(site))
        return run


#: The origin's sender states (DESIGN.md §14): not started (or stopped);
#: a zero-delay wake armed; waiting for work with the idle tick armed; a
#: batch in flight, waiting for its DS durability or its deadline.
STOPPED, WOKEN, IDLE, IN_FLIGHT = range(4)


class PropagationMixin:
    # ------------------------------------------------------------------
    # Origin side
    # ------------------------------------------------------------------
    def _enqueue_propagation(self, record: CommitRecord, notify: Optional[str]) -> None:
        own = 1 << self.site_id
        tracker = PropagationTracker(
            record, notify, acked=own, visible=own, committed_at=self.kernel.now
        )
        self._trackers[record.tid] = tracker
        # Resend bookkeeping: entries are appended in committed_at order,
        # so the stale ones _resend_unacked looks for form a prefix.
        self._undurable.append((tracker.committed_at, tracker))
        self._outbox.append(record)
        if self._sender == IDLE:
            self._arm_sender(WOKEN, 0.0)
        # A 1-site deployment (or f=0) may already satisfy durability.
        self._maybe_ds(tracker)

    def _arm_sender(self, state: int, delay: float) -> None:
        """Enter ``state`` with its one timer.  Every arm bumps the
        generation, so whatever timer was armed before finds itself
        superseded when it fires and returns at once."""
        self._sender = state
        self._sender_gen += 1
        self.kernel.call_after(delay, self._sender_fired, self._sender_gen)

    def _sender_fired(self, gen: int) -> None:
        """A wake sends what queued.  A release (the batch in flight is
        DS-durable, or its deadline passed) and an idle tick first
        retransmit what partitions or crashes left un-acked."""
        if gen == self._sender_gen:
            if self._sender != WOKEN:
                self._resend_unacked()
            self._send_next()

    def _send_next(self) -> None:
        """Batched propagation: ship everything committed since the last
        batch, then wait for that batch to become DS-durable before the
        next -- this serialization is what yields the [RTTmax, 2·RTTmax]
        DS-durability latency distribution (Fig 19)."""
        while self._outbox:
            records, self._outbox = self._outbox, []
            self._send_batch(records)
            gen = self._sender_gen + 1  # what _arm_sender will give it
            self._ds_awaited = 0
            for record in records:
                tracker = self._trackers.get(record.tid)
                if tracker is not None and not tracker.ds_durable and tracker.awaited != gen:
                    tracker.awaited = gen
                    self._ds_awaited += 1
            if self._ds_awaited:
                # Wait for the batch to become DS-durable (_maybe_ds
                # counts it down), but no longer than ~one max round
                # trip: under load a receiver may still be applying the
                # previous batch, and stalling dispatch would make the
                # batch period grow without bound instead of staying
                # ~RTTmax.
                self._arm_sender(IN_FLIGHT, self._batch_period())
                return
            self._resend_unacked()
        self._arm_sender(IDLE, self._batch_period() * 4)

    def _batch_period(self) -> float:
        """~One maximum round trip from this site (min 5 ms)."""
        return max(0.005, self.network.topology.max_rtt_from(self.site_id))

    def _resend_unacked(self) -> None:
        """Retransmit records whose PROPAGATE (or DS-DURABLE) may have
        been lost -- e.g. dropped by a partition that has since healed.
        Receivers treat duplicates idempotently and simply re-ACK.

        Instead of walking every tracker, this consults two focused
        structures the tracker lifecycle maintains: ``_ds_unvisible``
        (DS-durable trackers still missing VISIBLE acks, in the order
        they became DS-durable) and ``_undurable`` (a committed_at-ordered
        deque whose stale entries form a prefix; superseded entries --
        resent or since-durable trackers -- are dropped lazily as they
        surface at the head)."""
        now = self.kernel.now
        stale = 3.0 * self._batch_period()
        for tracker in self._ds_unvisible.values():
            if now - (tracker.ds_at or now) <= stale:
                continue
            for site in self.config.active_sites():
                if site == self.site_id:
                    continue
                if not tracker.acked >> site & 1:
                    # A site activated after DS durability (site
                    # re-integration) may lack the record itself; it
                    # cannot commit what it never received, so
                    # re-PROPAGATE, not just re-announce.
                    self._cast_propagate(
                        site,
                        *self._encode([self._record_for(tracker.record, site)]),
                    )
                if not tracker.visible >> site & 1:
                    # VISIBLE acks missing: re-announce DS durability.
                    self._cast_ds_durable(site, [tracker.record])
            tracker.ds_at = now
        undurable = self._undurable
        resend: List[CommitRecord] = []
        while undurable:
            stamped_at, tracker = undurable[0]
            if tracker.ds_durable or tracker.committed_at != stamped_at:
                # Became durable, or was resent since this entry was
                # appended (its live entry sits further back).
                undurable.popleft()
                continue
            if now - stamped_at <= stale:
                break  # committed_at-ordered: nothing behind is stale
            undurable.popleft()
            resend.append(tracker.record)
            tracker.committed_at = now  # back off further resends
            undurable.append((now, tracker))
        if resend:
            resend.sort(key=lambda r: r.seqno)
            self._send_batch(resend)
            self.stats.inc("retransmissions", len(resend))

    def _kept(self, record: CommitRecord, site: int) -> Optional[Tuple[int, ...]]:
        """Indices of the updates of ``record`` whose containers ``site``
        replicates, or None when it keeps them all -- always under full
        replication."""
        updates = record.updates
        if not self.partial_replication or not updates:
            return None
        container = self.config.container
        keep = tuple(
            i for i, u in enumerate(updates) if container(u.oid.container).replicated_at(site)
        )
        return None if len(keep) == len(updates) else keep

    @staticmethod
    def _trim(record: CommitRecord, kept: Optional[Tuple[int, ...]]) -> CommitRecord:
        if kept is None:
            return record
        updates = record.updates
        return record.trimmed([updates[i] for i in kept])

    def _record_for(self, record: CommitRecord, site: int) -> CommitRecord:
        """The form of ``record`` shipped to ``site``: the record itself
        under full replication, else trimmed to the updates whose
        containers ``site`` replicates (DESIGN.md §13).  Trimmed records
        keep tid/site/seqno/startVTS, so the destination still advances
        its clocks through the full contiguous stream -- only the data a
        site does not store stays off its wire and out of its WAL."""
        return self._trim(record, self._kept(record, site))

    def _send_batch(self, records: List[CommitRecord]) -> None:
        """One delta-encoded ``propagate_batch`` cast per destination per
        ``max_batch`` chunk.  A chunk's trim signature for a destination
        is what :meth:`_kept` keeps of each record; the trimmed copies
        are built and encoded once per distinct signature, and every
        destination with that signature gets the same
        :class:`PropagationBatch`, so its receivers also share one
        decode.  Under full replication there is one signature."""
        for record in records:
            self._span(record.tid, span.PROPAGATE_SEND, batch=len(records))
        kept = self._kept
        max_batch = self.batching.max_batch
        for start in range(0, len(records), max_batch):
            chunk = records[start : start + max_batch]
            # Batch-occupancy observability (DESIGN.md §14).
            self._prop_batch_hist.observe(float(len(chunk)))
            payloads = {}
            for site in self.config.active_sites():
                if site == self.site_id:
                    continue
                signature = tuple([kept(record, site) for record in chunk])
                payload = payloads.get(signature)
                if payload is None:
                    payload = payloads[signature] = self._encode(
                        list(map(self._trim, chunk, signature))
                    )
                self._cast_propagate(site, *payload)
        self.stats.inc("batches_sent")

    @staticmethod
    def _encode(records: List[CommitRecord]) -> Tuple[PropagationBatch, int]:
        entries, size = encode_propagation_batch(records)
        return PropagationBatch(entries), size

    # The four protocol messages.  A lone record (a retransmission, a
    # late VISIBLE ack) travels as a batch of one: there is no second,
    # per-record wire.
    def _cast_propagate(self, site: int, batch: PropagationBatch, size: int) -> None:
        self.cast(self.peers[site], "propagate_batch", size_bytes=size, batch=batch)

    def _cast_propagate_ack(self, reply_to: str, tids: List[str]) -> None:
        self.cast(
            reply_to,
            "propagate_ack_batch",
            size_bytes=ack_batch_bytes(len(tids)),
            tids=tids,
            site=self.site_id,
        )

    def _cast_ds_durable(self, site: int, records: List[CommitRecord]) -> None:
        self.cast(
            self.peers[site],
            "ds_durable_batch",
            size_bytes=ack_batch_bytes(len(records)),
            records=records,
        )

    def _cast_visible_ack(self, reply_to: str, tids: List[str]) -> None:
        self.cast(
            reply_to,
            "visible_ack_batch",
            size_bytes=ack_batch_bytes(len(tids)),
            tids=tids,
            site=self.site_id,
        )

    def on_propagate_ack_batch(self, src: str, tids: List[str], site: int):
        """One cast acknowledges a whole applied chunk.  DS-DURABLE
        announcements that fire while the acks are absorbed are buffered
        (see ``_maybe_ds``) and broadcast as a single
        ``ds_durable_batch`` per destination."""
        buf: List[CommitRecord] = []
        self._ds_buffer = buf
        bit = 1 << site
        try:
            for tid in tids:
                tracker = self._trackers.get(tid)
                if tracker is None:
                    continue
                tracker.acked |= bit
                self._maybe_ds(tracker)
        finally:
            self._ds_buffer = None
        if buf:
            self._broadcast_ds_durable(buf)

    def _broadcast_ds_durable(self, records: List[CommitRecord]) -> None:
        for site in self.config.active_sites():
            if site != self.site_id:
                self._cast_ds_durable(site, records)

    def on_visible_ack_batch(self, src: str, tids: List[str], site: int):
        bit = 1 << site
        for tid in tids:
            tracker = self._trackers.get(tid)
            if tracker is None:
                continue
            tracker.visible |= bit
            self._maybe_visible(tracker)

    @staticmethod
    def _commit_time(tracker: PropagationTracker) -> float:
        # Lag is measured from the commit point stamped on the record,
        # not tracker.committed_at: the latter is set after the WAL
        # flush and doubles as the resend-backoff timer.
        if tracker.record.committed_at is not None:
            return tracker.record.committed_at
        return tracker.committed_at

    def _maybe_ds(self, tracker: PropagationTracker) -> None:
        if tracker.ds_durable or not self._ds_condition(tracker):
            return
        tracker.ds_durable = True
        tracker.ds_at = self.kernel.now
        self._ds_unvisible[tracker.record.tid] = tracker
        if tracker.awaited == self._sender_gen:
            self._ds_awaited -= 1
            if not self._ds_awaited:
                self.kernel.call_soon(self._sender_fired, self._sender_gen)
        self._ds_lag.observe(self.kernel.now - self._commit_time(tracker))
        self._span(tracker.record.tid, span.DS_DURABLE, acked=bin(tracker.acked).count("1"))
        self.storage.log.append(("ds_durable", tracker.record.tid))
        if self._ds_buffer is not None:
            # Inside on_propagate_ack_batch: defer the broadcast so every
            # record the ack batch made DS-durable ships in one
            # ds_durable_batch per destination.
            self._ds_buffer.append(tracker.record)
        else:
            self._broadcast_ds_durable([tracker.record])
        if tracker.client is not None:
            self.cast(tracker.client, "tx_ds_durable", tid=tracker.record.tid)
        self._maybe_visible(tracker)

    def _ds_condition(self, tracker: PropagationTracker) -> bool:
        acked = tracker.acked
        if self.ds_mode == "all_sites":
            # §8.1: "we consider a transaction to be disaster-safe durable
            # when it is committed at all sites in the experiment".
            active = self.config.active_mask()
            return acked & active == active
        # Spec mode (§4.4/Fig 13): f+1 sites replicating each object,
        # including the object's preferred site.
        acked_sites = [s for s in range(acked.bit_length()) if acked >> s & 1]
        for oid in touched_oids(tracker.record.updates):
            container = self.config.container(oid.container)
            replicating = sum(1 for s in acked_sites if container.replicated_at(s))
            if replicating < self.f + 1:
                return False
            if not acked >> container.preferred_site & 1:
                return False
        return True

    def _maybe_visible(self, tracker: PropagationTracker) -> None:
        if tracker.globally_visible or not tracker.ds_durable:
            return
        active = self.config.active_mask()
        if tracker.visible & active != active:
            return
        tracker.globally_visible = True
        self._visibility_lag.observe(self.kernel.now - self._commit_time(tracker))
        self._span(tracker.record.tid, span.GLOBALLY_VISIBLE)
        self.storage.log.append(("globally_visible", tracker.record.tid))
        if tracker.client is not None:
            self.cast(tracker.client, "tx_visible", tid=tracker.record.tid)
        # Fully propagated: retire the tracker (late duplicate acks are
        # ignored; the commit record stays in _records_by_version).
        self._visible_tids.add(tracker.record.tid)
        self._trackers.pop(tracker.record.tid, None)
        self._ds_unvisible.pop(tracker.record.tid, None)

    def recheck_durability(self) -> None:
        """Re-evaluate DS/visibility conditions, e.g. after the active-site
        set shrank during reconfiguration (§5.7)."""
        for tracker in list(self._trackers.values()):
            self._maybe_ds(tracker)
            self._maybe_visible(tracker)

    def rpc_recheck_durability(self):
        self.recheck_durability()
        return "OK"

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    #: Remote records applied per commit-lock acquisition.  Chunking is
    #: what lets replication keep up under commit saturation (a FIFO lock
    #: grants the apply path one turn per queue rotation) while bounding
    #: how long a batch apply can stall committing transactions.
    #:
    #: A measured constant, not a knob.  Batched acks make every origin's
    #: cycle rigid, so on an N-site fan-out the N-1 remote batches reach a
    #: site at the same instant and their appliers take the lock back to
    #: back; local commits queue behind the whole convoy.  At 512 a turn
    #: was a whole batch (~230 records x 7.7 us = 1.8 ms) and seven in a
    #: row 12.4 ms, so commits slipped up to six 2 ms WAL flush steps
    #: (commit p99 14 ms).  Committed tx per 100 ms window on the ledger's
    #: write_fanout_8site (seed 23) by chunk size: 512 -> 2003,
    #: 64 -> 2115, 32 -> 2206, 24 -> 2230, 16 -> 2392, 8 -> 2396,
    #: 1 -> 2398, at 19 kernel events per transaction for 16 and 29 for
    #: 1.  16 is the knee: 7 appliers x 16 x 7.7 us stays under one
    #: flush, so no commit slips a flush-grid step (p99 4 ms).  The other
    #: side of the trade: on a *saturated* lock a shorter turn is a smaller
    #: share for replication, which already fell behind there at 512
    #: (EXPERIMENTS.md Fig 17 write-only row; the open work is
    #: replication that keeps up under commit saturation).
    APPLY_CHUNK = 16

    def on_propagate_batch(self, src: str, batch: PropagationBatch):
        """PROPAGATE: open the delta-encoded payload (decoded once, shared
        with the other destinations it went to), apply it in seqno order,
        and acknowledge the whole applied run with one cast."""
        to_ack = yield from self._apply_propagate_batch(src, batch.records())
        if to_ack:
            self._cast_propagate_ack(src, to_ack)

    def _apply_propagate_batch(self, src: Optional[str], records: List[CommitRecord]):
        """Apply a propagation batch; returns the tids to acknowledge.

        The one place a remote record enters ``histories`` at run time:
        a fresh ``propagate_batch``, a run ``_drain_pending`` released
        and a recovery delivery (``src`` None: nobody to ack) all come
        through here, so they may race each other on the same records.

        Applies run in chunks of ``APPLY_CHUNK`` under one commit-lock
        acquisition, and durability is awaited once for the whole batch
        (the WAL group-commits) -- otherwise a large batch would
        serialize thousands of lock handoffs and flushes.  ``records``
        may be shared with other receivers: it is only read.
        """
        to_ack: List[str] = []
        last_durable = None
        i = 0
        while i < len(records):
            record = records[i]
            if self.got_vts[record.site] >= record.seqno:
                # Duplicate (origin re-propagating after recovery): re-ACK.
                to_ack.append(record.tid)
                i += 1
                continue
            if not self._got_guard(record):
                self._park_remote(record, src)
                i += 1
                continue
            yield self.commit_lock.acquire()
            try:
                # Plan the chunk against a scratch copy of GotVTS, charge
                # ONE aggregated apply-cost timeout, then apply without
                # further yields (a timeout per record would cost a
                # kernel event per record per receiver for the same total
                # simulated time).  The plan reproduces the incremental
                # guard exactly -- records in a batch are same-origin
                # contiguous seqnos, so each admitted record enables the
                # next one's got guard.
                chunk: List[CommitRecord] = []
                plan = PlanningClock(self.got_vts)
                while i < len(records) and len(chunk) < self.APPLY_CHUNK:
                    record = records[i]
                    i += 1
                    if plan[record.site] >= record.seqno:
                        # The authoritative duplicate check: the guard
                        # above ran before we queued for the lock, and
                        # another copy of this version may have won it
                        # first.  Cset updates are not idempotent.
                        to_ack.append(record.tid)
                    elif plan.admit(record.site, record.seqno, record.start_vts):
                        chunk.append(record)
                    else:
                        self._park_remote(record, src)
                if chunk:
                    yield self.kernel.timeout(self.costs.apply_remote * len(chunk))
                    last_durable = self._apply_chunk(chunk)
                    to_ack.extend([record.tid for record in chunk])
            finally:
                self.commit_lock.release()
            self._drain_pending()
        if last_durable is not None:
            yield last_durable  # batch durable before acknowledging
        return to_ack

    def _apply_chunk(self, chunk: List[CommitRecord]):
        """Apply a planned chunk under the commit lock in one pass.
        Per record, in order: histories, the record index and the
        observability (LRU refresh, replication lag -- origin commit to
        applied here, on the clock the origin stamped into the record --
        and, on traced servers, access profile and span).  Per chunk:
        one GotVTS replacement per origin, one counter bump, one WAL
        entry holding the chunk itself; returns the event that fires
        when it is durable.

        GotVTS advances from its value *now*, not from the plan: that
        was made before the apply-cost timeout, and recovery moves the
        clocks without holding the commit lock."""
        apply = self.histories.apply
        by_version = self._records_by_version
        cache_put = self.storage.cache.put
        lag = self._replication_lag.observe
        now = self.kernel.now
        tracer = self._tracer
        deep = tracer is not None and tracer.deep
        # The access profiler exists exactly on traced servers.
        profile = self.profiler.record_remote_apply if tracer is not None else None
        for record in chunk:
            version = record.version
            updates = record.updates
            apply(updates, version)
            by_version[version] = record
            if len(updates) > 1:
                oids = touched_oids(updates)  # several may repeat an object
            else:  # the common record: no set (and no hash) to name one object
                oids = [update.oid for update in updates]
            for oid in oids:
                cache_put(oid, True)
            if record.committed_at is not None:
                lag(now - record.committed_at)
            if tracer is None:
                continue
            for oid in oids:
                profile(oid)
            if deep:
                # Link the apply back to the origin's send, so the
                # propagation hop is a causal edge in the span graph.
                self._deep(
                    record.tid, span.REMOTE_APPLY, origin=record.site,
                    parent=tracer.last_seq(record.tid, span.PROPAGATE_SEND),
                )
            else:
                self._span(record.tid, span.REMOTE_APPLY, origin=record.site)
        self.got_vts = self._advanced(self.got_vts, chunk)
        self.stats.inc("remote_applied", len(chunk))
        return self.storage.log.append(("remote_apply", chunk), len(chunk))

    def _park_remote(self, record: CommitRecord, src: Optional[str]) -> None:
        """Hold back a record whose got guard failed, once: batches can
        carry duplicates (retransmissions, recovery delivery racing
        normal propagation), and a version parked twice would be
        released twice."""
        self._pending_remote.add(record, src)

    def _got_guard(self, record: CommitRecord) -> bool:
        """Fig 13: GotVTS_i >= x.startVTS and GotVTS_i[j] = x.seqno - 1."""
        return PlanningClock(self.got_vts).admit(
            record.site, record.seqno, record.start_vts
        )

    def on_ds_durable_batch(self, src: str, records: List[CommitRecord]):
        """DS-DURABLE: commit every announced record whose guards pass,
        park the rest (deduplicated: DS-DURABLE is re-announced
        periodically while the origin waits for our VISIBLE ack, which
        can be a long time if we are missing a record's causal
        dependencies), then reply with one ``visible_ack_batch``.
        VISIBLE acks raised while processing -- including ones
        ``_drain_pending`` emits for records this batch unblocked -- are
        buffered via ``_send_visible_ack``."""
        acks: List[str] = []
        self._vis_ack_buffer = (src, acks)
        try:
            # Triage against a scratch copy of CommittedVTS that each
            # admitted record advances, as committing it would, and
            # commit what it admitted as one run.  Acks keep record order.
            plan = PlanningClock(self.committed_vts)
            got_vts = self.got_vts
            run: List[CommitRecord] = []
            for record in records:
                site, seqno = record.site, record.seqno
                if plan[site] >= seqno:
                    acks.append(record.tid)  # committed before: re-ack
                elif got_vts[site] >= seqno and plan.admit(site, seqno, record.start_vts):
                    run.append(record)
                    acks.append(record.tid)
                else:
                    self._pending_ds.add(record, src)
            if run:
                self._commit_remote_run(run)
            self._drain_pending()
        finally:
            self._vis_ack_buffer = None
        if acks:
            self._cast_visible_ack(src, acks)

    def _send_visible_ack(self, reply_to: str, tid: str) -> None:
        """Send (or, inside a DS batch, buffer) one VISIBLE ack.  The
        buffer only captures acks aimed at the batch's origin; acks owed
        to a different site (pending records parked by an earlier
        announcement) go out as batches of one."""
        buf = self._vis_ack_buffer
        if buf is not None and buf[0] == reply_to:
            buf[1].append(tid)
        else:
            self._cast_visible_ack(reply_to, [tid])

    def _committed_guard(self, record: CommitRecord) -> bool:
        """Fig 13: CommittedVTS_i >= x.startVTS, CommittedVTS_i[j] =
        x.seqno - 1, and x was received (PROPAGATE applied)."""
        return self.got_vts[record.site] >= record.seqno and PlanningClock(
            self.committed_vts
        ).admit(record.site, record.seqno, record.start_vts)

    @staticmethod
    def _advanced(clock: VectorTimestamp, records: List[CommitRecord]) -> VectorTimestamp:
        """``clock`` with each origin's entry set to the seqno of its
        last record in ``records`` -- one replacement per origin."""
        for site, seqno in {record.site: record.seqno for record in records}.items():
            clock = clock.with_entry(site, seqno)
        return clock

    def _commit_remote_run(self, records: List[CommitRecord]) -> None:
        """Commit, in order, a run of records the committed guard
        admitted one after the other: CommittedVTS advances once per
        origin, the run's versions go down as one ``remote_commit`` WAL
        entry and the counter is bumped once.  Acknowledging is the
        caller's."""
        self.committed_vts = self._advanced(self.committed_vts, records)
        # Per record there is only something to do with prepare locks
        # held here (2PC participant) or a tracer / spec trace bound.
        if self._prepared or self._tracer is not None or self.trace is not None:
            for record in records:
                self._release_locks(record.tid)
                self._span(record.tid, span.REMOTE_COMMIT, origin=record.site)
                if self.trace is not None:
                    self.trace.record_site_commit(self.site_id, record.version)
        self.storage.log.append(
            ("remote_commit", [record.version for record in records]), len(records)
        )
        self.stats.inc("remote_commits", len(records))

    # ------------------------------------------------------------------
    # Guard re-evaluation
    # ------------------------------------------------------------------
    def _drain_pending(self) -> None:
        """Wake held-back PROPAGATE/DS-DURABLE records whose guards now
        pass.  Called whenever GotVTS or CommittedVTS advances.

        GotVTS is fixed for the whole call (applies are spawned processes
        that take the commit lock later), so each origin's releasable run
        is known up front and goes to one :meth:`_apply_parked_run`
        process.  CommittedVTS advances during the call
        (``_commit_remote_run`` runs inline) and a commit of one origin can
        satisfy the startVTS of another's head, so the DS half sweeps the
        origins' heads until a pass commits nothing.

        ``_drain_scan_steps`` counts examined entries; the perf
        regression tests assert it stays O(unblocked), not O(parked).
        """
        pending_remote = self._pending_remote
        if len(pending_remote):
            for site in pending_remote.sites():
                run = pending_remote.pop_run(site, self.got_vts)
                self._drain_scan_steps += len(run) + 1
                if run:
                    self.spawn_child(
                        self._apply_parked_run(run),
                        name=("apply:%s", (run[0][0].tid,)),
                    )

        pending_ds = self._pending_ds
        progress = bool(len(pending_ds))
        while progress:
            progress = False
            for site in pending_ds.sites():
                seqno = pending_ds.parked_head(site)
                while seqno is not None:
                    self._drain_scan_steps += 1
                    record, reply_to = pending_ds.get(site, seqno)
                    if self.committed_vts[site] >= seqno:
                        pass  # already committed here: just (re-)acknowledge
                    elif self._committed_guard(record):
                        self._commit_remote_run([record])
                        progress = True
                    else:
                        break
                    pending_ds.pop_head(site)
                    if reply_to is not None:  # recovery-staged: nobody to ack
                        self._send_visible_ack(reply_to, record.tid)
                    seqno = pending_ds.parked_head(site)

    def _apply_parked_run(self, run: List[tuple]):
        """Apply one origin's released ``(record, reply_to)`` run -- the
        same chunked path a fresh batch takes -- and acknowledge each
        stretch to whoever sent it (recovery-staged entries have nobody
        to ack)."""
        for reply_to, entries in groupby(run, key=operator.itemgetter(1)):
            to_ack = yield from self._apply_propagate_batch(
                reply_to, [record for record, _reply_to in entries]
            )
            if to_ack and reply_to is not None:
                self._cast_propagate_ack(reply_to, to_ack)
