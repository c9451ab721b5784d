"""Asynchronous transaction propagation (paper Fig 13, §5.6).

After a transaction commits locally it is propagated in the background:

1. the origin sends PROPAGATE (in periodic batches -- "each batch remotely
   copies all transactions that committed since the last batch", §6);
2. a receiver applies the updates once it has (a) every transaction that
   causally precedes x per ``x.startVTS`` and (b) all of x's site's
   transactions with smaller seqnos (the GotVTS guard), then ACKs;
3. once every other active site ACKed it -- the experiments' definition
   (§8.1; the spec's f+1 sites per object is a deviation, DESIGN.md §2)
   -- the transaction is **disaster-safe durable** and the origin
   broadcasts DS-DURABLE;
4. a receiver *commits* x (advances CommittedVTS, releases x's locks)
   once x is DS-durable and the same causality guards hold against
   CommittedVTS, then replies VISIBLE;
5. when every site replied, x is **globally visible**.

Every step travels batched (DESIGN.md §14): ``propagate_batch`` carries a
delta-encoded run of records (:mod:`repro.net.wire`), and ACK,
DS-DURABLE and VISIBLE are each one per-origin **frontier** -- a
``propagate_ack``, ``ds_durable`` or ``visible_ack`` cast naming the
highest seqno ``q`` of one origin such that every record of that origin
up to ``q`` is applied and WAL-durable at the receiver, DS-durable at
the origin, or committed at the receiver.  Receivers apply and commit
each origin's records in seqno order (the Fig 13 guards), so an
acknowledgement is cumulative, and a frontier says it in one entry.
A frontier also names the tid of the record at ``q``, and one whose
named record is not the one held at that seqno is ignored: recovery
reuses the seqnos site removal abandoned for no-op records.  These four
casts are the whole wire; a lone record is a batch of one.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..core.transaction import CommitRecord
from ..core.updates import touched_oids
from ..core.versions import PlanningClock, VectorTimestamp, Version
from ..net.wire import (
    FRONTIER_BYTES,
    decode_propagation_batch,
    encode_propagation_batch,
)
from ..obs import trace as span
from ..sim import Event


class PropagationTracker:
    """Origin-side state for one committed transaction in flight, held
    in ``_trackers`` under its seqno until it is globally visible.

    Which sites acknowledged it is not stored here: site ``s`` ACKed
    (resp. replied VISIBLE for) record ``q`` iff the origin's
    ``_acked_through[s]`` (``_visible_through[s]``) is at least ``q``,
    and record ``q`` is DS-durable iff ``_ds_prefix`` is.
    An origin keeps one tracker per commit until it is globally visible,
    thousands at once on a fan-out, so the tracker is slotted (by hand:
    ``dataclass(slots=True)`` needs Python 3.10)."""

    __slots__ = ("record", "client", "committed_at", "ds_at")

    def __init__(self, record: CommitRecord, client: Optional[str] = None,
                 committed_at: float = 0.0):
        self.record = record
        self.client = client
        self.committed_at = committed_at
        self.ds_at: Optional[float] = None


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
    Only the entries pickle, so an unpickled copy decodes for itself.
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
    """Parked records per origin site, ordered by seqno: a clock advance
    releases exactly what it unblocks, however much else is parked.
    Records only ever leave from a site's head."""

    __slots__ = ("_entries", "_heaps")

    def __init__(self):
        self._entries = {}  # (site, seqno) -> record
        self._heaps = {}  # site -> min-heap of that site's parked seqnos

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, record: CommitRecord) -> None:
        """Park a record, once -- batches can carry duplicates."""
        key = (record.site, record.seqno)
        if key not in self._entries:
            self._entries[key] = record
            heapq.heappush(self._heaps.setdefault(record.site, []), record.seqno)

    def sites(self) -> List[int]:
        return list(self._heaps)

    def parked_head(self, site: int) -> Optional[int]:
        """The smallest parked seqno of ``site``, or None."""
        heap = self._heaps.get(site)
        return heap[0] if heap else None

    def pop_run(self, site: int, clock: VectorTimestamp) -> List[CommitRecord]:
        """Pop and return, in seqno order, what ``clock`` lets a receiver
        apply of ``site``: the duplicates it already covers, then the
        contiguous run of next seqnos, each admitted against the clock as
        the ones before it advance it (the Fig 13 guard).  Stops at the
        first record that must wait, so nothing is popped only to be
        parked again."""
        run = []
        heap = self._heaps.get(site)
        plan = PlanningClock(clock)
        while heap:
            seqno = heap[0]
            record = self._entries[(site, seqno)]
            if seqno > plan[site] and not plan.admit(site, seqno, record.start_vts):
                break
            del self._entries[(site, heapq.heappop(heap))]
            run.append(record)
        return run


class RemoteApply:
    """A run of one origin's records going through the receiver's
    applier (:meth:`PropagationMixin._apply_run`) as kernel callbacks
    that subscribe where a process would block: to the commit-lock
    grant, to one apply-cost timer per chunk and to the durability of
    the last chunk applied.  A crash of the server ends the chain at its
    next callback (``_incarnation``, as ``Host._handle`` does)."""

    __slots__ = ("server", "records", "i", "last", "last_durable", "incarnation", "done")

    def __init__(self, server, records: List[CommitRecord]):
        self.server = server
        self.records = records
        self.i = 0  # the next record to triage
        self.last: Optional[CommitRecord] = None  # the last record applied
        self.last_durable: Optional[Event] = None  # ... and its WAL event
        self.done: Optional[Event] = None  # see _apply_run
        self.incarnation = server._incarnation

    def next_chunk(self) -> bool:
        """Triage up to the next record whose got guard holds and queue
        for the commit lock; past the last record, wait for the applies
        to land (or ACK now).  Returns whether the chain finished."""
        server = self.server
        records = self.records
        i = self.i
        while i < len(records):
            record = records[i]
            if server.got_vts[record.site] >= record.seqno:
                i += 1  # duplicate: a retransmission, or recovery's copy
                continue
            if not server._got_guard(record):
                server._park_remote(record)
                i += 1
                continue
            self.i = i
            server.commit_lock.acquire()._subscribe(server.kernel, self._granted)
            return False
        self.i = i
        if self.last_durable is not None:
            self.last_durable._subscribe(server.kernel, self._landed)
            return False
        self._ack()
        return True

    def _granted(self, _value, _exc) -> None:
        server = self.server
        if self.incarnation != server._incarnation:
            return
        # Plan the chunk against a scratch copy of GotVTS, charge ONE
        # aggregated apply-cost timer (one per record would cost a kernel
        # event per record per receiver for the same simulated time),
        # then apply without further waits.  The plan reproduces the
        # incremental guard exactly -- records in a run are same-origin
        # contiguous seqnos, so each admitted record enables the next
        # one's got guard.
        records = self.records
        i = self.i
        chunk: List[CommitRecord] = []
        plan = PlanningClock(server.got_vts)
        while i < len(records) and len(chunk) < server.APPLY_CHUNK:
            record = records[i]
            i += 1
            if plan[record.site] >= record.seqno:
                # The authoritative duplicate check: the triage ran before
                # we queued for the lock, and another copy of this version
                # may have won it first.  Cset updates are not idempotent.
                continue
            if plan.admit(record.site, record.seqno, record.start_vts):
                chunk.append(record)
            else:
                server._park_remote(record)
        self.i = i
        if chunk:
            server.kernel.call_after(server.costs.apply_remote * len(chunk), self._timed, chunk)
        else:
            self._unlock()

    def _timed(self, chunk: List[CommitRecord]) -> None:
        if self.incarnation == self.server._incarnation:
            self.last_durable = self.server._apply_chunk(chunk)
            self.last = chunk[-1]
            self._unlock()

    def _unlock(self) -> None:
        self.server.commit_lock.release()
        self.server._drain_pending()
        if self.next_chunk():
            self.done.complete_now()

    def _landed(self, _value, _exc) -> None:
        # The ACK frontier moves once the apply lands.  Every record of
        # the origin below ``last`` was applied, and so logged, before
        # it: the FIFO WAL made them durable too.  Unless recovery
        # truncated it meanwhile.
        server = self.server
        if self.incarnation != server._incarnation:
            return
        last = self.last
        if (
            last.seqno > server._ack_frontier[last.site][0]
            and server._records_by_version.get(last.version) is last
        ):
            server._ack_frontier[last.site] = (last.seqno, last.tid)
        self._ack()
        self.done.complete_now()

    def _ack(self) -> None:
        if self.records:
            site = self.records[0].site
            frontier = self.server._ack_frontier[site]
            if frontier[0] >= self.records[0].seqno:
                self.server._cast_frontier(site, "propagate_ack", frontier)


#: The origin's sender states (DESIGN.md §14): not started (or stopped);
#: a zero-delay wake armed; waiting for work with the idle tick armed; a
#: batch in flight, waiting for its DS durability or its deadline.
STOPPED, WOKEN, IDLE, IN_FLIGHT = range(4)


class PropagationMixin:
    # ------------------------------------------------------------------
    # Origin side
    # ------------------------------------------------------------------
    def _enqueue_propagation(self, record: CommitRecord, notify: Optional[str]) -> None:
        trackers = self._trackers
        if not trackers:
            # Trackers enter in seqno order (local commits land in WAL
            # order), so with none in flight every own seqno below this
            # one is retired -- or predates the stream (the preload
            # image, survivors of a site removal).
            self._visible_prefix = self._ds_prefix = record.seqno - 1
        tracker = PropagationTracker(record, notify, committed_at=self.kernel.now)
        trackers[record.seqno] = tracker
        # Resend bookkeeping: entries are appended in committed_at order,
        # so the stale ones _resend_unacked looks for form a prefix.
        self._undurable.append((tracker.committed_at, tracker))
        self._outbox.append(record)
        if self._sender == IDLE:
            self._arm_sender(WOKEN, 0.0)
        # Alone in the active set it is DS-durable now.
        if self.config.active_mask() == 1 << self.site_id:
            self._settle()

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
            if records[-1].seqno > self._ds_prefix:
                # Wait for the DS prefix to cover the batch (_mark_ds
                # wakes the sender), but no longer than ~one max round
                # trip: under load a receiver may still be applying the
                # previous batch, and stalling dispatch would make the
                # batch period grow without bound instead of staying
                # ~RTTmax.
                self._ds_awaited = records[-1].seqno
                self._arm_sender(IN_FLIGHT, self._batch_period())
                return
            self._resend_unacked()
        self._arm_sender(IDLE, self._batch_period() * 4)

    def _batch_period(self) -> float:
        """~One maximum round trip from this site (min 5 ms)."""
        return max(0.005, self.network.topology.max_rtt_from(self.site_id))

    def _resend_unacked(self) -> None:
        """Retransmit to each site what it has not acknowledged (e.g.
        batches a partition dropped) once stale, three batch periods:
        records short of DS durability and, when the oldest record in
        flight has been DS-durable that long, the DS frontier to each
        site whose VISIBLE frontier lags it, with the records it never
        ACKed (a site re-integrated since may lack them).  Receivers
        treat duplicates idempotently and re-ACK their frontier.

        ``_undurable`` is a committed_at-ordered deque whose stale
        entries form a prefix; superseded entries -- resent or
        since-durable trackers -- are dropped lazily as they surface at
        the head."""
        now = self.kernel.now
        stale = 3.0 * self._batch_period()
        undurable = self._undurable
        resend: List[CommitRecord] = []
        while undurable:
            stamped_at, tracker = undurable[0]
            if tracker.record.seqno <= self._ds_prefix or tracker.committed_at != stamped_at:
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
        upto = self._ds_prefix
        head = self._trackers.get(self._visible_prefix + 1)
        if head is not None and head.record.seqno <= upto and now - head.ds_at > stale:
            head.ds_at = now  # back off further re-announcements
            for site in self._others():
                if self._visible_through[site] < upto:
                    self._cast_ds_durable(site)
            floor = max(self._floor(self._acked_through), self._visible_prefix)
            if floor < upto:
                resend += self._records_by_version.run(self.site_id, floor, upto)
        if resend:
            resend.sort(key=lambda r: r.seqno)
            self._send_batch(resend)
            self.stats.inc("retransmissions", len(resend))

    def _others(self) -> List[int]:
        """The active sites other than this one."""
        return [site for site in self.config.active_sites() if site != self.site_id]

    def _floor(self, frontiers: List[int]) -> float:
        """The lowest of ``frontiers`` over the other active sites
        (infinite when there are none)."""
        others = self.config.active_mask() & ~(1 << self.site_id)
        return min([q for s, q in enumerate(frontiers) if others >> s & 1], default=float("inf"))

    def _kept(self, record: CommitRecord, site: int) -> Optional[Tuple[int, ...]]:
        """Indices of the updates of ``record`` whose containers ``site``
        replicates, or None when it keeps them all -- always under full
        replication."""
        updates = record.updates
        if not self.config.partial or not updates:
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
        ``MAX_BATCH`` chunk.  A chunk's trim signature for a destination
        is what :meth:`_kept` keeps of each record; the trimmed copies
        are built and encoded once per distinct signature, and every
        destination with that signature gets the same
        :class:`PropagationBatch`, so its receivers also share one
        decode.  Under full replication there is one signature.

        ``records`` are in seqno order, and each destination gets only
        those above its ACK frontier (a retransmission skips what it
        ACKed): a suffix of each chunk, part of the signature."""
        for record in records:
            self._span(record.tid, span.PROPAGATE_SEND, batch=len(records))
        kept = self._kept
        max_batch = self.MAX_BATCH
        for start in range(0, len(records), max_batch):
            chunk = records[start : start + max_batch]
            # Batch-occupancy observability (DESIGN.md §14).
            self._prop_batch_hist.observe(float(len(chunk)))
            payloads = {}
            for site in self._others():
                first, acked = 0, self._acked_through[site]
                while first < len(chunk) and chunk[first].seqno <= acked:
                    first += 1
                if first == len(chunk):
                    continue
                mine = chunk[first:] if first else chunk
                signature = (first, tuple([kept(record, site) for record in mine]))
                payload = payloads.get(signature)
                if payload is None:
                    payload = payloads[signature] = self._encode(
                        list(map(self._trim, mine, signature[1]))
                    )
                self._cast_propagate(site, *payload)
        self.stats.inc("batches_sent")

    @staticmethod
    def _encode(records: List[CommitRecord]) -> Tuple[PropagationBatch, int]:
        entries, size = encode_propagation_batch(records)
        return PropagationBatch(entries), size

    # The four protocol messages: a record batch and three frontiers.
    def _cast_propagate(self, site: int, batch: PropagationBatch, size: int) -> None:
        self.cast(self.peers[site], "propagate_batch", size_bytes=size, batch=batch)

    def _cast_frontier(self, site: int, method: str, frontier: Tuple[int, Optional[str]]) -> None:
        """Send ``site`` a ``(seqno, tid)`` frontier; nothing while no
        record has reached it (its tid is None)."""
        seqno, tid = frontier
        if tid is not None:
            self.cast(self.peers[site], method, size_bytes=FRONTIER_BYTES,
                      site=self.site_id, seqno=seqno, tid=tid)

    def _cast_ds_durable(self, site: int) -> None:
        seqno = self._ds_prefix
        self._cast_frontier(site, "ds_durable", (seqno, self._trackers[seqno].record.tid))

    def _holds(self, site: int, seqno: int, tid: str) -> bool:
        """Whether the record held here at ``(site, seqno)`` is ``tid``."""
        tracker = self._trackers.get(seqno) if site == self.site_id else None
        if tracker is not None:
            return tracker.record.tid == tid
        record = self._records_by_version.get(Version(site, seqno))
        return record is not None and record.tid == tid

    def on_propagate_ack(self, src: str, site: int, seqno: int, tid: str):
        """ACK frontier: ``site`` applied, durably, every record of this
        origin through ``seqno``.  Re-evaluate what it advanced over."""
        if seqno > self._acked_through[site] and self._holds(self.site_id, seqno, tid):
            self._acked_through[site] = seqno
            self._settle()

    def on_visible_ack(self, src: str, site: int, seqno: int, tid: str):
        """VISIBLE frontier: ``site`` committed every record of this
        origin through ``seqno``."""
        if seqno > self._visible_through[site] and self._holds(self.site_id, seqno, tid):
            self._visible_through[site] = seqno
            self._retire()

    @staticmethod
    def _commit_time(tracker: PropagationTracker) -> float:
        # Lag is measured from the commit point stamped on the record,
        # not tracker.committed_at: the latter is set after the WAL
        # flush and doubles as the resend-backoff timer.
        if tracker.record.committed_at is not None:
            return tracker.record.committed_at
        return tracker.committed_at

    def _settle(self) -> None:
        """Advance the DS prefix over the records every other active site
        ACKed -- §8.1: "we consider a transaction to be disaster-safe
        durable when it is committed at all sites in the experiment" --
        marking each once, in seqno order; then announce the prefix to
        every other active site if it grew, and retire what became
        globally visible.  The floor is recomputed here, so a site's
        deactivation (``recheck_durability``) lifts it as an ACK does."""
        trackers = self._trackers
        floor = self._floor(self._acked_through)
        seqno = self._ds_prefix
        tracker = trackers.get(seqno + 1)
        while tracker is not None and seqno < floor:
            seqno += 1
            self._mark_ds(tracker)
            tracker = trackers.get(seqno + 1)
        if seqno > self._ds_prefix:
            self._ds_prefix = seqno
            for site in self._others():
                self._cast_ds_durable(site)
        self._retire()

    def _mark_ds(self, tracker: PropagationTracker) -> None:
        """One record became DS-durable: its lag, span and client
        notification are per record, and the last record of the batch
        in flight wakes the sender."""
        now = self.kernel.now
        record = tracker.record
        tracker.ds_at = now
        if record.seqno == self._ds_awaited and self._sender == IN_FLIGHT:
            self.kernel.call_soon(self._sender_fired, self._sender_gen)
        self._ds_lag.observe(now - self._commit_time(tracker))
        if self._tracer is not None:
            acked = sum(1 for s, q in enumerate(self._acked_through)
                        if s == self.site_id or q >= record.seqno)
            self._span(record.tid, span.DS_DURABLE, acked=acked)
        if tracker.client is not None:
            self.cast(tracker.client, "tx_ds_durable", tid=record.tid)

    def _retire(self) -> None:
        """Retire, in seqno order, the DS-durable trackers every other
        active site committed: they are globally visible.  The commit
        record stays in ``_records_by_version``."""
        seqno = self._visible_prefix + 1
        if seqno > self._ds_prefix:
            return
        trackers = self._trackers
        tracker = trackers.get(seqno)
        upto = min(self._ds_prefix, self._floor(self._visible_through))
        while tracker is not None and seqno <= upto:
            del trackers[seqno]
            self._visible_prefix = seqno
            tid = tracker.record.tid
            self._visibility_lag.observe(self.kernel.now - self._commit_time(tracker))
            self._span(tid, span.GLOBALLY_VISIBLE)
            self.storage.log.append(("globally_visible", tid))
            if tracker.client is not None:
                self.cast(tracker.client, "tx_visible", tid=tid)
            seqno += 1
            tracker = trackers.get(seqno)

    def recheck_durability(self) -> None:
        """Re-evaluate DS/visibility conditions, e.g. after the active-site
        set shrank during reconfiguration (§5.7)."""
        if self._trackers:
            self._settle()

    def rpc_recheck_durability(self):
        self.recheck_durability()
        return "OK"

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    #: Remote records applied per commit-lock acquisition.  Chunking is
    #: what lets replication keep up under commit saturation (a FIFO lock
    #: grants the apply path one turn per queue rotation) while bounding
    #: how long a batch apply can stall committing transactions.  A
    #: measured constant, not a knob: 16 is the knee of the commit-lock
    #: convoy on write_fanout_8site (DESIGN.md §14 has the table).
    APPLY_CHUNK = 16
    #: Commit records per ``propagate_batch`` cast; a longer run splits
    #: into consecutive casts (DESIGN.md §14).  Large enough that the
    #: ~RTT-period batches of Fig 19 never split.
    MAX_BATCH = 512

    def on_propagate_batch(self, src: str, batch: PropagationBatch) -> Optional[Event]:
        """PROPAGATE: open the delta-encoded payload (decoded once, shared
        with the other destinations it went to) and apply it in seqno
        order; the origin gets one ACK frontier.  Returns what
        :meth:`_apply_run` returns; the network ignores it."""
        return self._apply_run(batch.records())

    def _apply_run(self, records: List[CommitRecord]) -> Optional[Event]:
        """Apply a run of one origin's records and, once the applies are
        durable, send the origin this site's ACK frontier if it covers
        any of them: a batch of duplicates re-ACKs (its origin resent it
        because an ACK was lost), but only what has landed.

        The one place a remote record enters ``histories`` at run time:
        a fresh ``propagate_batch``, a run ``_drain_pending`` released
        and a recovery delivery all come through here, so they may race
        each other on the same records.

        Applies run in chunks of ``APPLY_CHUNK`` under one commit-lock
        acquisition, and durability is awaited once for the whole run
        (the WAL group-commits) -- otherwise a large batch would
        serialize thousands of lock handoffs and flushes.  ``records``
        may be shared with other receivers: it is only read.

        No process: a :class:`RemoteApply` chain of kernel callbacks
        (DESIGN.md §14).  Returns None when it finished here, else an
        event completed inside the callback where it finishes."""
        chain = RemoteApply(self, records)
        if chain.next_chunk():
            return None
        chain.done = Event(self.kernel, "apply")
        return chain.done

    def _apply_chunk(self, chunk: List[CommitRecord]):
        """Apply a planned chunk (of one origin's records) under the
        commit lock, one pass per structure, each in record order:
        histories, the record index, the LRU refresh (a record's objects
        in ``touched_oids`` order), the replication lag -- origin commit
        to applied here, on the clock the origin stamped into the record
        -- and, on traced servers, the access profile and spans.  Then
        one GotVTS replacement, one counter bump, one WAL entry holding
        the chunk itself; returns the event that fires when it is
        durable.

        GotVTS advances from its value *now*, not from the plan: that
        was made before the apply-cost timer, and recovery moves the
        clocks without holding the commit lock."""
        self.histories.apply_records(chunk)
        self._records_by_version.put_run(chunk)
        oids = []
        for record in chunk:
            updates = record.updates
            if len(updates) == 1:  # the common record: no set (and no hash)
                oids.append(updates[0].oid)
            elif updates:
                oids += touched_oids(updates)  # several may repeat an object
        self.storage.cache.touch(oids)
        lag = self._replication_lag.observe
        now = self.kernel.now
        for record in chunk:
            if record.committed_at is not None:
                lag(now - record.committed_at)
        tracer = self._tracer
        if tracer is not None:
            # The access profiler exists exactly on traced servers.
            profile = self.profiler.record_remote_apply
            for oid in oids:
                profile(oid)
            for record in chunk:
                # Link the apply back to the origin's send, so the
                # propagation hop is a causal edge in the span graph.
                self._span(
                    record.tid, span.REMOTE_APPLY, origin=record.site,
                    parent=tracer.last_seq(record.tid, span.PROPAGATE_SEND),
                )
        last = chunk[-1]
        self.got_vts = self.got_vts.with_entry(last.site, last.seqno)
        self.stats.inc("remote_applied", len(chunk))
        return self.storage.log.append(("remote_apply", chunk), len(chunk))

    def _park_remote(self, record: CommitRecord) -> None:
        """Hold back a record whose got guard failed, once: batches can
        carry duplicates (retransmissions, recovery delivery racing
        normal propagation), and a version parked twice would be
        released twice."""
        self._pending_remote.add(record)

    def _got_guard(self, record: CommitRecord) -> bool:
        """Fig 13: GotVTS_i >= x.startVTS and GotVTS_i[j] = x.seqno - 1."""
        return PlanningClock(self.got_vts).admit(
            record.site, record.seqno, record.start_vts
        )

    def on_ds_durable(self, src: str, site: int, seqno: int, tid: str):
        """DS-DURABLE frontier: every record of origin ``site`` through
        ``seqno`` is DS-durable.  Accepted once the record it names is
        applied here (the newest waits in ``_ds_heard``), it lets
        ``_drain_pending`` commit what it covers.  One that finds all of
        it committed is a resend (our VISIBLE was lost): re-ack."""
        if seqno > self._ds_through[site]:
            if self.got_vts[site] >= seqno:
                if self._holds(site, seqno, tid):
                    self._ds_through[site] = seqno
            elif seqno > self._ds_heard.get(site, (0, None))[0]:
                self._ds_heard[site] = (seqno, tid)
        committed = self.committed_vts[site]
        self._drain_pending()
        if self.committed_vts[site] == committed >= seqno:
            self._cast_frontier(site, "visible_ack", self._visible_frontier[site])

    def _commit_remote_run(self, records: List[CommitRecord]) -> None:
        """Commit, in order, a run of one origin's records the committed
        guard admitted one after the other: CommittedVTS and the VISIBLE
        frontier advance once, the run's versions go down as one
        ``remote_commit`` WAL entry and the counter is bumped once.
        Acknowledging is the caller's."""
        last = records[-1]
        self.committed_vts = self.committed_vts.with_entry(last.site, last.seqno)
        self._visible_frontier[last.site] = (last.seqno, last.tid)
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
        """Apply parked PROPAGATE records and commit DS-durable ones
        whose guards now pass.  Called whenever GotVTS or CommittedVTS
        (or a DS frontier) advances.

        GotVTS is fixed for the whole call (an apply starts in its own
        kernel callback and takes the commit lock later), so each
        origin's releasable run is known up front and goes to one
        :meth:`_apply_run`, queued with ``call_soon``.  The commit
        half runs inline: per origin, the applied
        records up to its DS frontier (Fig 13's committed guard: x
        received, CommittedVTS at x.seqno - 1 and covering x.startVTS),
        and a commit of one origin can satisfy the startVTS of another's
        next record, so it sweeps the origins until a pass commits
        nothing; then each origin it advanced gets one VISIBLE frontier.

        ``_drain_scan_steps`` counts examined records; the perf
        regression tests assert it stays O(unblocked), not O(parked).
        """
        pending_remote = self._pending_remote
        if len(pending_remote):
            for site in pending_remote.sites():
                run = pending_remote.pop_run(site, self.got_vts)
                self._drain_scan_steps += len(run) + 1
                if run:
                    self.kernel.call_soon(self._apply_run, run)

        ds_through = self._ds_through
        heard = self._ds_heard
        if heard:
            for site in [s for s, (seqno, _tid) in heard.items() if self.got_vts[s] >= seqno]:
                seqno, tid = heard.pop(site)
                if seqno > ds_through[site] and self._holds(site, seqno, tid):
                    ds_through[site] = seqno
        advanced: List[int] = []
        progress = any(map(int.__gt__, ds_through, self.committed_vts))
        while progress:
            progress = False
            for site, upto in enumerate(ds_through):
                have = self.committed_vts[site]
                if upto <= have:
                    continue
                upto = min(upto, self.got_vts[site])
                plan = PlanningClock(self.committed_vts)
                run = []
                for record in self._records_by_version.run(site, have, upto):
                    self._drain_scan_steps += 1
                    if not plan.admit(site, record.seqno, record.start_vts):
                        break
                    run.append(record)
                if run:
                    self._commit_remote_run(run)
                    progress = True
                    if site not in advanced:
                        advanced.append(site)
        for site in advanced:
            self._cast_frontier(site, "visible_ack", self._visible_frontier[site])
