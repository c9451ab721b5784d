"""Write-ahead log with group commit (paper §6).

"Walter uses write-ahead logging, where commit logs are flushed to disk at
commit time ... To improve disk efficiency, Walter employs group commit to
flush many commit records to disk at the same time."

The disk model has a single knob, ``flush_latency``: the time one flush
takes.  Records arriving while a flush is in progress are batched into the
next flush -- that *is* group commit, and it is what bounds commit latency
under load (Fig 18).  "Write-caching off" is modelled as a larger flush
latency; in-memory commit (the Redis-comparison configuration of §8.7)
is ``flush_latency=0``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from ..obs.metrics import CounterView, Histogram, MetricsRegistry, log_buckets
from ..sim import Event, Kernel

#: Buckets of the ``disklog.flush_batch`` histogram (records per flush).
FLUSH_BATCH_BUCKETS = log_buckets(1.0, 4096.0)

#: Flush latencies (seconds) for the three disk configurations of Fig 18.
FLUSH_EC2 = 0.002            # EC2 instance storage (write cache state unknown)
FLUSH_WRITE_CACHING_ON = 0.001   # private cluster, write cache enabled
FLUSH_WRITE_CACHING_OFF = 0.008  # private cluster, write cache disabled
FLUSH_MEMORY = 0.0           # commit to memory only (§8.7 configuration)


@dataclass(init=False)
class LogRecord:
    """One durable entry with the simulated time it became durable.
    Slotted: the log keeps one per entry for the whole run (by hand:
    ``dataclass(slots=True)`` needs Python 3.10, and a slot cannot have
    a class-level default, hence the written ``__init__``).  An entry
    may group several records (a receiver's applied chunk or committed
    run); :class:`DiskStats` counts records, not entries."""

    __slots__ = ("payload", "appended_at", "durable_at")

    payload: Any
    appended_at: float
    durable_at: Optional[float]

    def __init__(self, payload, appended_at, durable_at=None):
        self.payload = payload
        self.appended_at = appended_at
        self.durable_at = durable_at


class DiskStats(CounterView):
    """The log's registry counters, labelled with its site:
    ``disklog.flushes``, ``disklog.records``, ``disklog.stalls`` and
    ``disklog.fenced`` (records a takeover discarded)."""

    PREFIX = "disklog"
    FIELDS = ("flushes", "records", "stalls", "fenced")

    __slots__ = ()

    @property
    def flush_batch(self) -> Histogram:
        """Records per flush: the ``disklog.flush_batch`` histogram."""
        return self._registry.histogram(
            "disklog.flush_batch", buckets=FLUSH_BATCH_BUCKETS, **self._labels
        )

    @property
    def max_batch(self) -> int:
        """Records in the largest flush so far."""
        return int(self.flush_batch.max or 0)


class DiskLog:
    """An append-only durable log with group commit.

    :meth:`append` enqueues a record and returns an event that fires when
    the record is on disk.  One flush at a time (a chain of timers) drains
    the queue in batches of whatever accumulated during the previous flush.
    """

    def __init__(
        self,
        kernel: Kernel,
        flush_latency: float = FLUSH_EC2,
        name: str = "disk",
        flush_window: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
        site: int = 0,
    ):
        if flush_latency < 0:
            raise ValueError("flush latency must be >= 0")
        if flush_window < 0:
            raise ValueError("flush window must be >= 0")
        self.kernel = kernel
        self.flush_latency = flush_latency
        #: Adaptive group-commit window (DESIGN.md §14): with the log
        #: *busy* (the previous flush ended within ``_busy_window``), the
        #: flusher holds the next flush open this long to absorb
        #: concurrent commits.  0 keeps the legacy behavior exactly: the
        #: flusher takes whatever queued during the previous flush and
        #: flushes immediately.
        self.flush_window = flush_window
        self._busy_window = 4.0 * flush_latency
        self._last_flush_end = float("-inf")
        self.name = name
        self._durable_event_name = "%s.durable" % name
        self.entries: List[LogRecord] = []
        #: Counts live in ``registry`` (the deployment's, or a private
        #: one for a standalone log), labelled ``site=<site>``.
        self.stats = DiskStats(registry, site=site)
        counter = self.stats._counter
        self._flushes = counter("flushes")
        self._records = counter("records")
        self._stalls = counter("stalls")
        self._batch_hist = self.stats.flush_batch
        #: Deep tracing: a ``wal.flush`` span when a local commit record
        #: lands on disk, parented to the transaction's commit span (the
        #: flush is the group-commit leg of the critical path).
        self._tracer = tracer
        self._site = site
        #: Fault injection: flushes (even memory-speed ones) are held
        #: until this simulated time -- models a slow/saturated disk.
        self._stalled_until = 0.0
        #: Fencing epoch (§5.7): bumped by :meth:`fence` at server
        #: takeover; queued writes from an older epoch never land.
        self.epoch = 0
        #: Queued entries: ``(LogRecord, done, epoch, records, commit_tid)``.
        self._queue: deque = deque()
        #: The flush in progress, or None while the log is idle.
        self._batch: Optional[List] = None

    @staticmethod
    def _latency_critical(batch: List) -> bool:
        """Whether any queued entry is one a transaction is blocked on
        (appended with a ``commit_tid``: a local commit's WAL append
        gates the client's commit ack); background entries -- remote
        applies, remote commits, checkpoints -- only need durability
        eventually."""
        return any(entry[4] is not None for entry in batch)

    def _trace_flush(self, commit_tid: str, batch: int) -> None:
        tracer = self._tracer
        if not tracer.deep:
            return
        from ..obs.trace import FAST_COMMIT, SLOW_COMMIT_COMMIT, WAL_FLUSH

        parent = tracer.last_seq(commit_tid, FAST_COMMIT) or tracer.last_seq(
            commit_tid, SLOW_COMMIT_COMMIT
        )
        tracer.record(
            commit_tid, WAL_FLUSH, self._site, self.kernel.now,
            parent=parent, batch=batch,
        )

    def inject_stall(self, duration: float) -> float:
        """Fault injection: hold every flush until ``now + duration``.

        Commit paths blocked on :meth:`append` stay blocked for the
        stall, which is how the chaos harness models a disk hiccup.
        Overlapping stalls extend to the furthest deadline; returns the
        time flushes resume.
        """
        if duration < 0:
            raise ValueError("stall duration must be >= 0")
        self._stalled_until = max(self._stalled_until, self.kernel.now + duration)
        self._stalls.value += 1
        return self._stalled_until

    def append(
        self, payload: Any, records: int = 1, commit_tid: Optional[str] = None
    ) -> Event:
        """Enqueue ``payload`` as one entry holding ``records`` records;
        the returned event fires when it is durable.  A receiver logs an
        applied chunk or a committed run as one entry.  The count rides
        with the entry, and every count the log keeps -- the flush
        window's lone-record test, its counters, fencing -- is of
        records, so grouping them changes no flush decision.

        ``commit_tid`` names the transaction whose commit waits on this
        entry (a local commit record): such an entry never waits out the
        flush window, and a deep tracer gets a ``wal.flush`` span for it.
        The payload itself is opaque to the log."""
        if records < 1:
            raise ValueError("a log entry holds at least one record")
        done = Event(self.kernel, self._durable_event_name)
        now = self.kernel.now
        if self.flush_latency == 0 and now >= self._stalled_until:
            # Memory-speed commit: durable immediately (same kernel step).
            record = LogRecord(payload, now, now)
            self.entries.append(record)
            if self._tracer is not None and commit_tid is not None:
                self._trace_flush(commit_tid, 1)
            self._records.value += records
            done.trigger(record)
            return done
        self._queue.append((LogRecord(payload, now), done, self.epoch, records, commit_tid))
        if self._batch is None:
            self._batch = []
            self.kernel.call_soon(self._flush_start)
        return done

    def fence(self) -> List[Any]:
        """Storage fencing at server takeover (§5.7).

        A replicated cluster storage system fences off the old server's
        lease when a replacement takes over: writes the old server issued
        that are not yet durable are discarded and can never land later
        (otherwise a zombie write could resurface after the replacement
        already rebuilt its state, or collide with a reused seqno).
        Returns the discarded payloads so the deployment can account for
        the never-durable local commits; ``disklog.fenced`` counts
        their records.
        """
        # An older epoch in the flush in progress: an earlier fence's.
        doomed = list(self._queue) + [
            entry for entry in self._batch or () if entry[2] == self.epoch
        ]
        self._queue.clear()
        self.epoch += 1
        self.stats.inc("fenced", sum(entry[3] for entry in doomed))
        return [entry[0].payload for entry in doomed]

    def _flush_start(self) -> None:
        batch = self._batch
        batch.extend(self._queue)
        self._queue.clear()
        if not batch:  # fenced before it started
            self._batch = None
            return
        if (
            self.flush_window > 0.0
            and len(batch) == 1
            and batch[0][3] == 1  # one record, not one entry
            and self.kernel.now - self._last_flush_end <= self._busy_window
            and not self._latency_critical(batch)
        ):
            # Busy log, lone background record (remote apply /
            # checkpoint -- nothing is blocked on its durability):
            # flushes are arriving back-to-back but this one caught
            # only a single record, so hold it open briefly -- records
            # racing in during the window share the flush instead of
            # forcing the next one.  A batch that already collected
            # company flushes now (the in-progress-flush queue is group
            # commit enough); a local commit flushes now (a client is
            # waiting on the ack); and an idle log (no recent flush)
            # skips the wait entirely.
            self.kernel.call_after(self.flush_window, self._flush_write)
        else:
            self._flush_write()

    def _flush_write(self) -> None:
        self._batch.extend(self._queue)  # what queued meanwhile
        self._queue.clear()
        now = self.kernel.now
        if now < self._stalled_until:
            # Injected stall: wait it out (it may be extended while we
            # wait), absorbing records that queue up meanwhile.
            self.kernel.call_after(self._stalled_until - now, self._flush_write)
        else:
            self.kernel.call_after(self.flush_latency, self._flush_land)

    def _flush_land(self) -> None:
        batch = self._batch
        size = sum(entry[3] for entry in batch)
        self._flushes.value += 1
        self._batch_hist.observe(float(size))
        landed = 0
        for record, done, epoch, records, commit_tid in batch:
            if epoch != self.epoch:
                continue  # fenced while in flight: never lands
            record.durable_at = self.kernel.now
            self.entries.append(record)
            landed += records
            if self._tracer is not None and commit_tid is not None:
                self._trace_flush(commit_tid, size)
            done.trigger(record)
        self._records.value += landed
        self._last_flush_end = self.kernel.now
        self._batch = None
        if self._queue:
            self._batch = []
            self.kernel.call_soon(self._flush_start)

    def payloads(self) -> List[Any]:
        """Durable payloads in append order (used by recovery)."""
        return [r.payload for r in self.entries]

    def unlanded(self) -> List[Tuple[LogRecord, Event]]:
        """The entries appended in this epoch that are not durable yet,
        in append order, each with the event that fires when it lands."""
        return [
            (entry[0], entry[1])
            for entry in (*(self._batch or ()), *self._queue)
            if entry[2] == self.epoch
        ]

    def truncate(self, keep_from: int, landed: Iterable[LogRecord] = ()) -> int:
        """Garbage-collect what a checkpoint covers (§6: "the persistent
        log is periodically garbage collected"): the entries before index
        ``keep_from`` and the ``landed`` ones, which were in flight when
        it was taken (a memory-speed append may have landed among them
        since).  Returns how many entries were dropped."""
        covered = {id(record) for record in landed}
        before = len(self.entries)
        self.entries = [r for r in self.entries[keep_from:] if id(r) not in covered]
        return before - len(self.entries)
