"""Per-transaction span tracing over the simulated Walter lifecycle.

A trace is the ordered list of :class:`SpanEvent`\\ s a transaction emits
as it moves through the protocol:

``execute`` -> ``fast_commit`` | ``slow_commit.prepare`` +
``slow_commit.commit`` -> ``disklog_flush`` -> ``propagate_send`` ->
``remote_apply`` / ``remote_commit`` (per remote site) -> ``ds_durable``
-> ``globally_visible``

Events carry the site that emitted them, so lag between sites falls out
of a single trace: replication lag is ``remote_apply@s - commit@origin``,
disaster-safe-durability lag is ``ds_durable - commit``, visibility lag
is ``globally_visible - commit`` (paper Figs 18-20).

The tracer keeps at most ``capacity`` transactions in an insertion-order
ring buffer: when full, the oldest *completed* transaction's spans are
dropped (and counted), so long benchmarks retain the recent window
instead of growing without bound while a long-lived in-flight
transaction never loses spans mid-trace.  Tracing is opt-in; when
disabled the servers hold no tracer and pay only a ``None`` check per
hook.

Besides the lifecycle spans, a traced run records fine-grained
commit-path milestones (the ``commit.*``, ``rpc.*``, ``wal.*`` and
``client.*`` names below) and causal ``parent`` edges between spans,
from which :mod:`repro.obs.critical_path` computes per-transaction
latency budgets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

# Canonical event names (callers may also emit ad-hoc names).
EXECUTE = "execute"
FAST_COMMIT = "fast_commit"
SLOW_COMMIT_PREPARE = "slow_commit.prepare"
SLOW_COMMIT_COMMIT = "slow_commit.commit"
ABORT = "abort"
DISKLOG_FLUSH = "disklog_flush"
PROPAGATE_SEND = "propagate_send"
REMOTE_APPLY = "remote_apply"
REMOTE_COMMIT = "remote_commit"
DS_DURABLE = "ds_durable"
GLOBALLY_VISIBLE = "globally_visible"
#: Emitted by the chaos harness's fault injector (tid="chaos"), so
#: injected faults appear on the same timeline as transaction spans.
FAULT = "fault"

# Commit-path milestone names.
#: Client issued the commit RPC (recorded by the benchmark driver).
CLIENT_COMMIT_SEND = "client.commit_send"
#: Client received the commit reply.
CLIENT_COMMIT_REPLY = "client.commit_reply"
#: The server's tx_commit handler started executing.
COMMIT_RPC_BEGIN = "commit.rpc_begin"
#: CPU admission + per-op service time paid (queueing shows up here).
COMMIT_CPU = "commit.cpu"
#: All 2PC prepare votes collected (slow commit only).
COMMIT_VOTES = "commit.votes"
#: The site-wide commit lock was acquired (lock wait ends here).
COMMIT_LOCK_ACQUIRED = "commit.lock_acquired"
#: The tx_commit handler finished (reply is about to be sent).
COMMIT_RPC_END = "commit.rpc_end"
#: An RPC request carrying span context arrived at a remote host.
RPC_RECV = "rpc.recv"
#: The WAL flushed a batch containing this transaction's commit record.
WAL_FLUSH = "wal.flush"

#: Events that mark the local commit point (start of the lag clocks).
_COMMIT_EVENTS = (FAST_COMMIT, SLOW_COMMIT_COMMIT)

#: Events after which a trace can no longer grow: the transaction either
#: aborted or completed full propagation.  Used by the ring buffer to
#: decide which traces are safe to evict.
TERMINAL_EVENTS = frozenset((GLOBALLY_VISIBLE, ABORT))


class SpanEvent:
    """One point on a transaction's timeline (simulated seconds).

    A plain slotted class, not a dataclass: one of these is allocated per
    recorded span, which makes construction cost (and per-instance dict
    overhead) the dominant term of tracing overhead.  ``slots=True``
    dataclasses would do, but the CI floor is Python 3.9.
    """

    __slots__ = ("seq", "tid", "name", "site", "t", "extra", "parent")

    def __init__(
        self,
        seq: int,
        tid: str,
        name: str,
        site: int,
        t: float,
        extra: Optional[Dict[str, Any]] = None,
        #: Causal edge: the ``seq`` of the span event that caused this
        #: one (across RPC hops and propagation); serialized only when
        #: present.
        parent: Optional[int] = None,
    ):
        self.seq = seq
        self.tid = tid
        self.name = name
        self.site = site
        self.t = t
        self.extra = {} if extra is None else extra
        self.parent = parent

    def __repr__(self) -> str:
        return (
            "SpanEvent(seq=%r, tid=%r, name=%r, site=%r, t=%r, extra=%r, parent=%r)"
            % (self.seq, self.tid, self.name, self.site, self.t, self.extra, self.parent)
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SpanEvent):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.tid == other.tid
            and self.name == other.name
            and self.site == other.site
            and self.t == other.t
            and self.extra == other.extra
            and self.parent == other.parent
        )

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "seq": self.seq,
            "tid": self.tid,
            "event": self.name,
            "site": self.site,
            "t": round(self.t, 9),
        }
        if self.parent is not None:
            out["parent"] = self.parent
        for k in sorted(self.extra):
            out[k] = self.extra[k]
        return out


@dataclass
class TxTrace:
    """All spans recorded for one transaction."""

    tid: str
    events: List[SpanEvent] = field(default_factory=list)
    #: A terminal event (globally visible / abort) was recorded, or the
    #: owner called :meth:`Tracer.finish`; completed traces are the only
    #: ones the ring buffer may evict.
    completed: bool = False
    #: Per-name index of the most recent event's ``seq``, maintained by
    #: :meth:`Tracer.record` so the parent-edge lookup
    #: (:meth:`Tracer.last_seq`) is a dict get instead of a reversed
    #: scan of the event list -- that scan ran once per RPC edge
    #: and dominated tracing overhead on commit-heavy workloads.
    last_seq_by_name: Dict[str, int] = field(default_factory=dict)

    def first(self, name: str, site: Optional[int] = None) -> Optional[SpanEvent]:
        for event in self.events:
            if event.name == name and (site is None or event.site == site):
                return event
        return None

    def has(self, name: str, site: Optional[int] = None) -> bool:
        return self.first(name, site) is not None

    # ------------------------------------------------------------------
    # Derived timeline facts
    # ------------------------------------------------------------------
    @property
    def origin_site(self) -> Optional[int]:
        for name in (EXECUTE,) + _COMMIT_EVENTS:
            event = self.first(name)
            if event is not None:
                return event.site
        return self.events[0].site if self.events else None

    @property
    def commit_event(self) -> Optional[SpanEvent]:
        for event in self.events:
            if event.name in _COMMIT_EVENTS:
                return event
        return None

    @property
    def commit_kind(self) -> Optional[str]:
        event = self.commit_event
        if event is None:
            return None
        return "fast" if event.name == FAST_COMMIT else "slow"


class Tracer:
    """Bounded collector of transaction traces.

    Timestamps are supplied by callers (``kernel.now``) so the tracer has
    no clock of its own -- nothing here can leak wall-clock time into a
    deterministic run.
    """

    def __init__(self, capacity: int = 8192, deep: bool = True):
        # ``deep=True`` is an older spelling of the one level some
        # callers still pass; nothing records less.
        if not deep:
            raise ValueError("a Tracer has one level; deep=False is not accepted")
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        # Plain dict: insertion-ordered since 3.7, and both the per-event
        # get() and the eviction scan are cheaper than OrderedDict's.
        self._traces: Dict[str, TxTrace] = {}
        #: Tids in completion order, awaiting possible eviction.  Keeping
        #: this queue makes eviction O(1) amortized; scanning ``_traces``
        #: from the front instead (the previous implementation) walked
        #: past every still-open trace on each eviction, which dominated
        #: tracing overhead once a long benchmark filled the buffer.
        self._completed_fifo: deque = deque()
        self._seq = 0
        self.events_recorded = 0
        self.traces_dropped = 0
        self._subscribers: List[Callable[[SpanEvent], None]] = []

    def __len__(self) -> int:
        return len(self._traces)

    def subscribe(self, callback: Callable[[SpanEvent], None]) -> None:
        """Invoke ``callback(event)`` for every span recorded from now on
        (the online invariant monitor's feed).  Callbacks must not record
        spans themselves."""
        self._subscribers.append(callback)

    def record(
        self,
        tid: str,
        name: str,
        site: int,
        t: float,
        parent: Optional[int] = None,
        **extra,
    ) -> SpanEvent:
        trace = self._traces.get(tid)
        if trace is None:
            trace = self._traces[tid] = TxTrace(tid)
            if len(self._traces) > self.capacity:
                self._evict_completed()
        seq = self._seq + 1
        self._seq = seq
        # ``extra`` is already a fresh dict built from the call's keyword
        # arguments; hand it over without copying.
        event = SpanEvent(seq, tid, name, site, t, extra, parent)
        trace.events.append(event)
        trace.last_seq_by_name[name] = seq
        self.events_recorded += 1
        if name in TERMINAL_EVENTS and not trace.completed:
            trace.completed = True
            self._completed_fifo.append(tid)
        if self._subscribers:
            for callback in self._subscribers:
                callback(event)
        return event

    def _evict_completed(self) -> None:
        """Drop the earliest-*completed* traces until back within
        capacity.  Open (in-flight) traces are never evicted -- a
        transaction that outlives the buffer window keeps its whole
        timeline -- so the buffer may transiently exceed capacity by the
        number of open traces."""
        fifo = self._completed_fifo
        while len(self._traces) > self.capacity and fifo:
            del self._traces[fifo.popleft()]
            self.traces_dropped += 1

    def finish(self, tid: str) -> None:
        """Mark a trace completed (evictable) for lifecycles with no
        terminal span in the stream: read-only commits, client aborts
        delivered as plain RPCs, lease reaps."""
        trace = self._traces.get(tid)
        if trace is not None and not trace.completed:
            trace.completed = True
            self._completed_fifo.append(tid)

    def last_seq(self, tid: str, name: str) -> Optional[int]:
        """``seq`` of the most recent ``name`` event of ``tid`` (used to
        attach causal parent edges)."""
        trace = self._traces.get(tid)
        if trace is None:
            return None
        return trace.last_seq_by_name.get(name)

    def get(self, tid: str) -> Optional[TxTrace]:
        return self._traces.get(tid)

    def traces(self) -> List[TxTrace]:
        """Retained traces in first-event order."""
        return list(self._traces.values())

    def events(self) -> Iterator[SpanEvent]:
        """Every retained event in global emission order."""
        all_events = [e for trace in self._traces.values() for e in trace.events]
        all_events.sort(key=lambda e: e.seq)
        return iter(all_events)

    def clear(self) -> None:
        self._traces.clear()
        self._completed_fifo.clear()
