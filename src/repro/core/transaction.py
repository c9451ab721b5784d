"""Transaction state shared by the spec models and the Walter servers."""

from __future__ import annotations

import enum
import itertools
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, Iterator, List, Optional, Tuple

from ..errors import TransactionStateError
from .objects import ObjectId
from .updates import (
    CSetAdd,
    CSetDel,
    DataUpdate,
    Update,
    cset_set,
    touched_oids,
    write_set,
)
from .versions import VectorTimestamp, Version

_tid_counter = itertools.count(1)


def fresh_tid(prefix: str = "tx") -> str:
    """Globally unique transaction id (unique within the process, which is
    the whole simulated world)."""
    return "%s-%d" % (prefix, next(_tid_counter))


class TxStatus(enum.Enum):
    """Lifecycle state of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """A transaction executing at one site.

    Mirrors the attributes of the paper's pseudocode: ``tid``, ``site``,
    ``startVTS`` (Fig 10), the update buffer, and on commit a version
    ``⟨site, seqno⟩``.  Its durability milestones (disaster-safe
    durable, globally visible) reach the client as casts (§4.2).
    """

    tid: str
    site: int
    start_vts: VectorTimestamp
    updates: List[Update] = field(default_factory=list)
    status: TxStatus = TxStatus.ACTIVE
    version: Optional[Version] = None
    commit_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Buffering operations
    # ------------------------------------------------------------------
    def require_active(self) -> None:
        if self.status is not TxStatus.ACTIVE:
            raise TransactionStateError(
                "transaction %s is %s" % (self.tid, self.status.value)
            )

    def buffer_write(self, oid: ObjectId, data: Any) -> None:
        self.require_active()
        self.updates.append(DataUpdate(oid, data))

    def buffer_set_add(self, oid: ObjectId, elem: Hashable) -> None:
        self.require_active()
        self.updates.append(CSetAdd(oid, elem))

    def buffer_set_del(self, oid: ObjectId, elem: Hashable) -> None:
        self.require_active()
        self.updates.append(CSetDel(oid, elem))

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------
    @property
    def write_set(self) -> FrozenSet[ObjectId]:
        """Regular oids written (conflict-checked; excludes csets, Fig 11)."""
        return write_set(self.updates)

    @property
    def cset_set(self) -> FrozenSet[ObjectId]:
        return cset_set(self.updates)

    @property
    def touched(self) -> FrozenSet[ObjectId]:
        return touched_oids(self.updates)

    @property
    def is_read_only(self) -> bool:
        return not self.updates

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def mark_committed(self, version: Version, at: float) -> None:
        self.require_active()
        self.status = TxStatus.COMMITTED
        self.version = version
        self.commit_time = at

    def mark_committed_read_only(self, at: float) -> None:
        """Read-only transactions commit without a version: they make no
        updates, so there is nothing to propagate and they are trivially
        disaster-safe durable and globally visible."""
        self.require_active()
        if self.updates:
            raise TransactionStateError(
                "transaction %s has updates; not read-only" % self.tid
            )
        self.status = TxStatus.COMMITTED
        self.commit_time = at

    def mark_aborted(self) -> None:
        self.require_active()
        self.status = TxStatus.ABORTED

    def __repr__(self) -> str:
        return "Transaction(%s@site%d %s)" % (self.tid, self.site, self.status.value)


@dataclass(init=False)
class CommitRecord:
    """What propagation ships between sites: the committed transaction's
    identity, origin version, snapshot, and updates (Fig 13's ``x``).

    Never mutated after commit, so every receiver of one payload may
    share one object.  Slotted by hand (``dataclass(slots=True)`` needs
    Python 3.10), which is why ``__init__`` is written out: a slot
    cannot have a class-level default."""

    __slots__ = (
        "tid", "site", "seqno", "start_vts", "updates", "committed_at", "touched", "_version",
    )

    tid: str
    site: int
    seqno: int
    start_vts: VectorTimestamp
    updates: List[Update]
    #: Simulated time the transaction committed at its origin; carried on
    #: the wire so receivers can measure replication lag (repro.obs).
    committed_at: Optional[float]
    #: Trimmed records only: the container ids the ORIGINAL record's
    #: updates touched.  Partial replication drops non-replica updates
    #: from a site's wire copy, so recovery cannot tell from ``updates``
    #: alone what the transaction wrote; site removal needs the full
    #: footprint to judge whether every written container still has a
    #: surviving replica holding the data.  ``None`` on full records.
    touched: Optional[Tuple[str, ...]]

    def __init__(self, tid, site, seqno, start_vts, updates, committed_at=None, touched=None,
                 version=None):
        self.tid = tid
        self.site = site
        self.seqno = seqno
        self.start_vts = start_vts
        self.updates = updates
        self.committed_at = committed_at
        self.touched = touched
        #: Cached ``Version(site, seqno)`` (not a field: no repr, no
        #: compare) -- site/seqno are fixed and the property is hot.  The
        #: origin passes the version its commit already built, so one
        #: commit has one ``Version`` object.
        self._version: Optional[Version] = version

    @property
    def version(self) -> Version:
        v = self._version
        if v is None:
            v = self._version = Version(self.site, self.seqno)
        return v

    def __reduce__(self):
        # Constructor-args reduce: drops the lazily rebuilt ``_version``
        # cache from the pickled form and inlines the snapshot vector as
        # a bare int tuple (update objects stay as-is so shared oids keep
        # their pickle-memo hits); tests/net/test_determinism.py pins the
        # hash-seed-free bytes and the missing cache.
        return (
            _restore_record,
            (self.tid, self.site, self.seqno, self.start_vts._seqnos,
             self.updates, self.committed_at, self.touched),
        )

    def trimmed(self, updates: List[Update]) -> "CommitRecord":
        """A copy carrying only ``updates`` (a subset of this record's):
        what partial replication ships to a site that does not replicate
        every container the transaction wrote.  Identity, origin version,
        snapshot, and commit time are preserved, so receivers advance
        their vector clocks and release 2PC locks exactly as they would
        for the full record.  The copy remembers the original write
        footprint in ``touched``."""
        touched = self.touched
        if touched is None:
            touched = tuple(sorted({u.oid.container for u in self.updates}))
        return CommitRecord(
            self.tid, self.site, self.seqno, self.start_vts, updates,
            self.committed_at, touched=touched,
        )


def _restore_record(tid, site, seqno, seqnos, updates, committed_at, touched=None):
    """Unpickle target of :meth:`CommitRecord.__reduce__`."""
    return CommitRecord(
        tid, site, seqno, VectorTimestamp._wrap(seqnos), updates, committed_at,
        touched=touched,
    )


class RecordIndex(MutableMapping):
    """Commit records keyed by :class:`Version`, stored as one
    seqno-indexed run per origin site.

    A server keeps every record it committed or applied until GC prunes
    it, so the map holds one entry per transaction of the whole system.
    A dict entry costs about 50 bytes; here a record is one pointer in
    its origin's run: ``_runs[site] = [base, head, slots]`` holds the
    record of seqno ``base + i`` at ``slots[i]``.  A hole -- a record GC
    pruned or recovery truncated, or a seqno never applied here -- is
    None.  ``slots[:head]`` is a dead prefix that prefix deletion (GC)
    leaves behind and compacts once it is half the run, so deleting a
    run in seqno order stays O(1) a record.  Iteration is in (site,
    seqno) order."""

    __slots__ = ("_runs", "_len")

    def __init__(self, records=()):
        self._runs: Dict[int, list] = {}
        self._len = 0
        self.update(records)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, version: Version):
        run = self._runs.get(version.site)
        if run is not None:
            i = version.seqno - run[0]
            slots = run[2]
            if 0 <= i < len(slots) and slots[i] is not None:
                return slots[i]
        raise KeyError(version)

    def __setitem__(self, version: Version, record) -> None:
        if record is None:
            raise ValueError("a record index holds records, not None")
        seqno = version.seqno
        run = self._runs.get(version.site)
        if run is None:
            self._runs[version.site] = [seqno, 0, [record]]
            self._len += 1
            return
        base, head, slots = run
        i = seqno - base
        if i == len(slots):  # the common case: the origin's next seqno
            slots.append(record)
            self._len += 1
            return
        if i < 0:  # below the base: open a gap of holes at the front
            slots[0:0] = [None] * -i
            run[0] = seqno
            run[1] = i = 0
        elif i > len(slots):
            slots.extend([None] * (i - len(slots) + 1))
        elif i < head:
            run[1] = i
        if slots[i] is None:
            self._len += 1
        slots[i] = record

    def put_run(self, records: List["CommitRecord"]) -> None:
        """Index ``records``, one origin's consecutive seqnos in order (an
        applied chunk): one slice extend when they continue the origin's
        run, else record by record."""
        first = records[0]
        run = self._runs.get(first.site)
        if run is not None and first.seqno - run[0] == len(run[2]):
            run[2] += records
            self._len += len(records)
            return
        for record in records:
            self[record.version] = record

    def __delitem__(self, version: Version) -> None:
        self[version]  # KeyError if absent
        run = self._runs[version.site]
        base, head, slots = run
        i = version.seqno - base
        slots[i] = None
        self._len -= 1
        while slots and slots[-1] is None:
            slots.pop()
        if not slots:
            del self._runs[version.site]
            return
        if i == head:
            while slots[head] is None:
                head += 1
            if 2 * head > len(slots):
                del slots[:head]
                run[0] = base + head
                head = 0
            run[1] = head

    def __iter__(self) -> Iterator[Version]:
        for site in sorted(self._runs):
            base, head, slots = self._runs[site]
            for i in range(head, len(slots)):
                if slots[i] is not None:
                    yield Version(site, base + i)

    def __repr__(self) -> str:
        return "RecordIndex(%d records)" % self._len

    def records(self) -> Iterator["CommitRecord"]:
        """Every record, in (site, seqno) order."""
        for site in sorted(self._runs):
            _base, head, slots = self._runs[site]
            for i in range(head, len(slots)):
                if slots[i] is not None:
                    yield slots[i]

    def run(self, site: int, after: int = 0, upto: Optional[int] = None) -> List["CommitRecord"]:
        """The records of ``site`` with seqno in ``(after, upto]`` (no
        upper bound if ``upto`` is None), in seqno order: a slice of the
        run, holes skipped."""
        run = self._runs.get(site)
        if run is None:
            return []
        base, head, slots = run
        lo = max(after + 1 - base, head)
        hi = len(slots) if upto is None else max(0, min(upto + 1 - base, len(slots)))
        return [record for record in slots[lo:hi] if record is not None]

