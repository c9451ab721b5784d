"""Per-object version histories (the ``History_i[oid]`` variable of Fig 9).

Each Walter server keeps, per object, the sequence of updates applied at
that site, each tagged with the version ``⟨site, seqno⟩`` of the
responsible transaction.  Entries are appended in the order transactions
are applied locally, which for committed state is the site's commit order;
since PSI forbids write-write conflicts, any two versions of the same
regular object are causally ordered, and local apply order is consistent
with that causal order.  Hence "the last update in the history visible to
startVTS" (Fig 10) is well-defined.

Snapshot reads and the commit-time ``unmodified`` check are the hot
paths (Fig 10/Fig 11), so the history is indexed rather than scanned.
Its one index is a list of entries **per origin site in seqno order**,
each entry carrying its apply index within the history:

* the latest entry visible to a vector timestamp is one binary search
  per site, then the per-site winner with the largest apply index;
* ``unmodified_since`` compares each site's last entry: O(sites);
* cset histories carry an **incremental materialization**: a cached base
  :class:`CSet` equal to the fold of every entry visible at a GC
  watermark, plus the suffix of newer entries.  ``cset_value`` copies
  the base and folds only the suffix, so a hot cset's read cost is
  bounded by the churn since the last GC, not its lifetime update count;
* apply-order walks (remote reads, checkpoints, GC) merge the site lists
  by apply index; a history written from one site is walked in place.

A preloaded object is one :class:`SharedHistory` that every replicating
site holds until its first mutation there copies it.

Garbage collection (:meth:`ObjectHistory.gc_before`) advances the
watermark: superseded regular versions are dropped and visible cset
entries are folded into the base.  The contract is that **every snapshot
the site will still serve dominates the watermark** (the server derives
it from the minimum ``startVTS`` over active transactions met with
``CommittedVTS``); under that contract GC never changes a visible read
result or an ``unmodified`` verdict.  Reads below the watermark raise
:class:`~repro.errors.SnapshotTooOldError` instead of silently serving a
value the GC may have discarded.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import SnapshotTooOldError, TypeMismatchError
from .cset import CSet
from .objects import ObjectId, ObjectKind
from .updates import CSetAdd, CSetDel, DataUpdate, Update
from .versions import VectorTimestamp, Version


class HistoryEntry(NamedTuple):
    """One update, the version of the transaction that made it, and its
    apply index: its position in the history's apply order (entries
    dropped by GC or truncation leave no gap)."""

    update: Update
    version: Version
    order: int


#: ``ObjectHistory.append`` builds one entry per applied update at every
#: replica, so it builds the tuple in C, past the generated ``__new__``.
_new_entry = tuple.__new__

_ORDER = attrgetter("order")


def _visible_count(run: Sequence[HistoryEntry], seqno: int) -> int:
    """How many of ``run``'s entries a snapshot that has seen ``seqno``
    of their site sees: a right bisection over the entries' seqnos,
    after checking the common case that it sees them all."""
    if run[-1].version.seqno <= seqno:
        return len(run)
    lo, hi = 0, len(run) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if run[mid].version.seqno <= seqno:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _in_apply_order(runs: List[Iterable[HistoryEntry]]) -> Iterable[HistoryEntry]:
    """Merge per-site runs by apply index; a lone run is returned as is."""
    if len(runs) == 1:
        return runs[0]
    return sorted(chain.from_iterable(runs), key=_ORDER)


class ObjectHistory:
    """The ordered update sequence of a single object at one site."""

    __slots__ = ("oid", "_sites", "_count", "_base", "_base_max_seqno", "_floor", "_gc_vts")

    def __init__(self, oid: ObjectId):
        self.oid = oid
        #: Suffix entries (for csets: entries newer than the base; for
        #: regular objects: everything not yet GC'd), indexed by origin
        #: site: ``_sites[s]`` is site ``s``'s run in seqno order, or
        #: ``None`` if the suffix holds nothing from ``s``.
        self._sites: List[Optional[List[HistoryEntry]]] = []
        #: Number of suffix entries, which is also the next apply index.
        self._count = 0
        #: Cset base: fold of every entry visible at ``_gc_vts`` (csets
        #: only; ``None`` until the first fold).
        self._base: Optional[CSet] = None
        #: Per-site max seqno absorbed below the watermark: cset entries
        #: folded into the base, or regular versions pruned as
        #: superseded.  Keeps ``unmodified_since`` exact for *any*
        #: snapshot and makes the too-old check object-precise.
        #: ``None`` until GC first absorbs an entry.
        self._base_max_seqno: Optional[Dict[int, int]] = None
        #: Regular objects: the version GC kept as the watermark-visible
        #: value at the most recent prune.  A snapshot that sees it (or
        #: that saw nothing pruned) still reads exactly.
        self._floor: Optional[Version] = None
        #: Watermark of the last GC applied to this history (regular
        #: prune or cset fold); ``None`` if never GC'd.
        self._gc_vts: Optional[VectorTimestamp] = None

    def __len__(self) -> int:
        """Number of *suffix* entries (entries folded into a cset base
        are no longer individually retained)."""
        return self._count

    def __iter__(self) -> Iterator[HistoryEntry]:
        return iter(self._entries())

    def _entries(self) -> Iterable[HistoryEntry]:
        """Every suffix entry, in apply order."""
        return _in_apply_order([run for run in self._sites if run])

    @property
    def gc_vts(self) -> Optional[VectorTimestamp]:
        return self._gc_vts

    @property
    def base_counts(self) -> Optional[Dict[Any, int]]:
        """The cset base as raw counts (``None`` if no fold happened)."""
        return self._base.counts() if self._base is not None else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, update: Update, version: Version) -> None:
        # Identity almost always holds (no real serialization in the sim),
        # short-circuiting the dataclass field comparison.
        if update.oid is not self.oid and update.oid != self.oid:
            raise ValueError("update for %s appended to history of %s" % (update.oid, self.oid))
        sites = self._sites
        site = version.site
        if site < 0:
            raise ValueError("version %s outside the site universe" % (version,))
        run = sites[site] if site < len(sites) else None
        # Equal seqnos are one transaction's multiple updates to the same
        # object; only going backwards breaks the run's sort order.
        if run is not None and version.seqno < run[-1].version.seqno:
            raise ValueError(
                "non-monotonic apply: %s after seqno %d of site %d in history of %s"
                % (version, run[-1].version.seqno, site, self.oid)
            )
        if self._gc_vts is not None and self._gc_vts.visible(version):
            raise ValueError(
                "version %s appended below the GC watermark %r of %s"
                % (version, self._gc_vts, self.oid)
            )
        entry = _new_entry(HistoryEntry, (update, version, self._count))
        self._count += 1
        if run is not None:
            run.append(entry)
            return
        if site >= len(sites):
            self._sites = sites = sites + [None] * (site + 1 - len(sites))
        sites[site] = [entry]

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def visible_entries(self, vts: VectorTimestamp) -> Iterator[HistoryEntry]:
        """Suffix entries whose version is visible to snapshot ``vts``,
        in apply order.  (Cset entries folded into the base are not
        enumerable; use :meth:`cset_value` for the materialized state.)"""
        runs = [islice(run, _visible_count(run, seqno)) for run, seqno in self._runs(vts) if run]
        return iter(_in_apply_order(runs))

    def latest_visible(self, vts: VectorTimestamp) -> Optional[HistoryEntry]:
        """The last visible entry (regular-object snapshot read): one
        binary search per origin site, then the apply-order maximum of
        the per-site winners."""
        best = None
        for run, seqno in self._runs(vts):
            if not run:
                continue
            # Every snapshot read lands here: skip the call if all are visible.
            entry = run[-1]
            if entry.version.seqno > seqno:
                i = _visible_count(run, seqno)
                if not i:
                    continue
                entry = run[i - 1]
            if best is None or entry.order > best.order:
                best = entry
        return best

    def unmodified_since(self, vts: VectorTimestamp) -> bool:
        """Fig 11's ``unmodified(oid, VTS)``: every version of the object
        in the local history is visible to ``vts`` -- i.e. nothing was
        committed here after the snapshot.  O(sites): all entries of a
        site are visible iff its last one is."""
        for run, seqno in self._runs(vts):
            if run and run[-1].version.seqno > seqno:
                return False
        absorbed = self._base_max_seqno or {}
        return all(vts.visible(Version(site, seqno)) for site, seqno in absorbed.items())

    def cset_value(self, vts: VectorTimestamp) -> CSet:
        """Materialize a cset snapshot: copy of the base plus the fold of
        suffix entries visible to ``vts``.  Cset folds commute, so the
        suffix is folded per site via the same bisect index; sites fold
        in the order they first appear in the suffix, which fixes the
        element order of the result independently of site numbering."""
        self._check_not_below_watermark(vts)
        cset = self._base.copy() if self._base is not None else CSet()
        runs = [(run, seqno) for run, seqno in self._runs(vts) if run]
        if len(runs) > 1:
            runs.sort(key=lambda pair: pair[0][0].order)
        for run, seqno in runs:
            for entry in islice(run, _visible_count(run, seqno)):
                _apply_cset_update(cset, entry.update)
        return cset

    def _runs(self, vts: VectorTimestamp) -> Iterator[Tuple[Optional[List[HistoryEntry]], int]]:
        """Each site's run (``None`` if none) beside ``vts``'s seqno of that site;
        a run outside ``vts``'s sites is an error, as in ``vts.visible``."""
        if len(self._sites) > len(vts) and any(self._sites[len(vts):]):
            raise ValueError("%s holds versions outside the site universe of %r" % (self.oid, vts))
        return zip(self._sites, vts)

    def _check_not_below_watermark(self, vts: VectorTimestamp) -> None:
        """Object-precise too-old check (not the full site watermark:
        remote readers routinely lag it without being affected).

        Csets: the base is the fold of exactly the absorbed entries, so
        the read is exact iff every absorbed entry is visible -- i.e.
        ``vts`` dominates the per-site absorbed maxima.  Regular objects:
        exact iff ``vts`` sees the floor (every pruned version has a
        smaller apply order, so the answer comes from retained entries)
        or nothing was pruned."""
        if not self._base_max_seqno:
            return
        if self.oid.kind is ObjectKind.CSET:
            for site, seqno in self._base_max_seqno.items():
                if vts[site] < seqno:
                    raise SnapshotTooOldError(
                        "snapshot %r of %s is below absorbed version %s"
                        % (vts, self.oid, Version(site, seqno))
                    )
            return
        if self._floor is not None and not vts.visible(self._floor):
            raise SnapshotTooOldError(
                "snapshot %r of %s is below the GC floor %s"
                % (vts, self.oid, self._floor)
            )

    def versions(self) -> List[Version]:
        return [e.version for e in self._entries()]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def truncate_versions(self, keep: Iterable[Version]) -> int:
        """Remove suffix entries whose version is not in ``keep``;
        returns count removed.  Used by site-failure recovery to discard
        replicated data of non-surviving transactions (§5.7).  Entries
        already folded into a cset base cannot be truncated -- the server
        guarantees abandoned versions are never below the GC watermark
        by not GC'ing while its site is inactive."""
        keep_set = set(keep)
        kept = [e for e in self._entries() if e.version in keep_set]
        removed = self._count - len(kept)
        if removed:
            self._rebuild(kept)
        return removed

    def gc_before(self, vts: VectorTimestamp, fold_cset: bool = False) -> int:
        """Advance the GC watermark to ``vts``.

        Regular objects: drop every visible entry except the last (the
        visible snapshot value).  Csets: when ``fold_cset``, fold visible
        entries into the cached base (their sum *is* the visible state);
        otherwise leave csets untouched (the caller cannot guarantee the
        base would stay mergeable, e.g. for objects it does not
        replicate).  Any version visible at ``vts`` has already been
        applied here (per-site apply order is contiguous below
        ``CommittedVTS``), so no future append lands below the new
        watermark.  Returns the number of entries removed/folded."""
        cset = self.oid.kind is ObjectKind.CSET
        if cset and not fold_cset:
            return 0
        last = None if cset else self.latest_visible(vts)
        if not cset and last is None:
            return 0
        kept = []
        for entry in self._entries():
            if entry is last or not vts.visible(entry.version):
                kept.append(entry)
                continue
            if cset:
                if self._base is None:
                    self._base = CSet()
                _apply_cset_update(self._base, entry.update)
            if self._base_max_seqno is None:
                self._base_max_seqno = {}
            site, seqno = entry.version.site, entry.version.seqno
            if seqno > self._base_max_seqno.get(site, -1):
                self._base_max_seqno[site] = seqno
        removed = self._count - len(kept)
        if removed:
            if not cset:
                self._floor = last.version
            self._rebuild(kept)
        self._advance_watermark(vts)
        return removed

    def _advance_watermark(self, vts: VectorTimestamp) -> None:
        # Monotone join: a returning site's committed frontier can be
        # lowered by recovery truncation, and the watermark must never
        # move backwards (the base cannot be unfolded).
        self._gc_vts = vts if self._gc_vts is None else self._gc_vts.merge(vts)

    def _rebuild(self, kept: List[HistoryEntry]) -> None:
        """Reset the suffix to ``kept`` (in apply order), renumbering
        apply indices from zero.  A regular history keeps its floor,
        which the watermark covers, so the append guard is off meanwhile."""
        self._sites, self._count = [], 0
        gc_vts, self._gc_vts = self._gc_vts, None
        for update, version, _order in kept:
            self.append(update, version)
        self._gc_vts = gc_vts

    def is_empty(self) -> bool:
        return not self._count and self._base is None

    def collectible(self, vts: VectorTimestamp, fold_cset: bool = False) -> bool:
        """Whether :meth:`gc_before` at ``vts`` would drop or fold an entry."""
        if self.oid.kind is ObjectKind.CSET and not fold_cset:
            return False
        keep = 1 if self.oid.kind is ObjectKind.REGULAR else 0
        return sum(_visible_count(run, seqno) for run, seqno in self._runs(vts) if run) > keep

    def copy(self) -> "ObjectHistory":
        """A private copy (entries are immutable and shared with it).
        A site's first write to a preloaded object pays for one, so it
        skips ``__init__`` and copies a base only where one exists."""
        new = object.__new__(ObjectHistory)
        new.oid = self.oid
        new._sites = [None if run is None else run[:] for run in self._sites]
        new._count = self._count
        new._base = self._base
        new._base_max_seqno = self._base_max_seqno
        new._floor = self._floor
        new._gc_vts = self._gc_vts
        if new._base is not None:
            new._base = new._base.copy()
        if new._base_max_seqno is not None:
            new._base_max_seqno = dict(new._base_max_seqno)
        return new

    # ------------------------------------------------------------------
    # Serialization (checkpointing)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Checkpointable state: base + suffix.  A checkpoint
        deep-copies, so returning live references is fine."""
        return {
            "base": self._base.counts() if self._base is not None else None,
            "base_max_seqno": dict(self._base_max_seqno or ()),
            "floor": self._floor,
            "gc_vts": self._gc_vts,
            "entries": [(e.update, e.version) for e in self._entries()],
        }

    @classmethod
    def load(cls, oid: ObjectId, state: Dict[str, Any]) -> "ObjectHistory":
        hist = cls(oid)
        if state["base"] is not None:
            hist._base = CSet(state["base"])
        hist._base_max_seqno = dict(state["base_max_seqno"]) or None
        hist._floor = state["floor"]
        # Entries first, watermark after: a regular history retains its
        # watermark-visible floor entry, which the append-time guard
        # would otherwise reject.
        for update, version in state["entries"]:
            hist.append(update, version)
        hist._gc_vts = state["gc_vts"]
        return hist


class SharedHistory(ObjectHistory):
    """A read-only history several sites hold (a preloaded object,
    DESIGN.md §8); built private, then switched to this class."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("the shared history of %s is read-only" % (self.oid,))

    append = truncate_versions = gc_before = _read_only


def _apply_cset_update(cset: CSet, update: Update) -> None:
    if isinstance(update, CSetAdd):
        cset.add(update.elem)
    elif isinstance(update, CSetDel):
        cset.rem(update.elem)
    else:
        raise TypeMismatchError("DATA update found in cset history: %r" % (update,))


class SiteHistories:
    """All object histories at one site, plus typed snapshot reads."""

    def __init__(self):
        self._histories: Dict[ObjectId, ObjectHistory] = {}

    def history(self, oid: ObjectId) -> ObjectHistory:
        """Allocating accessor: the apply path (and tests) may create the
        history of a first-touched object, or copy a shared one.  Read
        paths must use :meth:`get` -- a read must not allocate."""
        hist = self._histories.get(oid)
        if hist is None or hist.__class__ is SharedHistory:
            hist = self._own(oid, hist)
        return hist

    def _own(self, oid: ObjectId, hist: Optional[ObjectHistory]) -> ObjectHistory:
        """Install a private history of ``oid`` in place of ``hist``:
        a new one where there was none, else a copy of the shared one."""
        hist = self._histories[oid] = ObjectHistory(oid) if hist is None else hist.copy()
        return hist

    def adopt(self, hist: SharedHistory) -> None:
        self._histories[hist.oid] = hist

    def get(self, oid: ObjectId) -> Optional[ObjectHistory]:
        """Non-mutating lookup for read paths."""
        return self._histories.get(oid)

    def known_oids(self) -> List[ObjectId]:
        return list(self._histories)

    def total_entries(self) -> int:
        """Retained suffix entries across all objects (memory gauge)."""
        return sum(len(h) for h in self._histories.values())

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._histories

    def apply(self, updates: Iterable[Update], version: Version) -> None:
        """Fig 11's ``update(updates, version)``: append every update to
        the matching object history, tagged with ``version``.  One lookup
        per update; a history is allocated or copied only for an object
        absent or still shared."""
        histories = self._histories
        for update in updates:
            hist = histories.get(update.oid)
            if hist is None or hist.__class__ is SharedHistory:
                hist = self._own(update.oid, hist)
            hist.append(update, version)

    def apply_records(self, records) -> None:
        """:meth:`apply` each of ``records`` (commit records) in order:
        a remote chunk's pass."""
        apply = self.apply
        for record in records:
            apply(record.updates, record.version)

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def read_regular(
        self, oid: ObjectId, vts: VectorTimestamp, buffer: Iterable[Update] = ()
    ) -> Any:
        """Regular-object snapshot read: the transaction's own buffered
        write if any, else the last visible committed version, else nil."""
        if oid.kind is not ObjectKind.REGULAR:
            raise TypeMismatchError("read on cset object %s; use read_cset" % oid)
        for update in reversed(list(buffer)):
            if isinstance(update, DataUpdate) and update.oid == oid:
                return update.data
        hist = self._histories.get(oid)
        if hist is None:
            return None
        hist._check_not_below_watermark(vts)
        entry = hist.latest_visible(vts)
        if entry is None:
            return None
        assert isinstance(entry.update, DataUpdate)
        return entry.update.data

    def read_cset(
        self, oid: ObjectId, vts: VectorTimestamp, buffer: Iterable[Update] = ()
    ) -> CSet:
        """Cset snapshot read: sum of visible ADD/DEL plus buffered ops."""
        if oid.kind is not ObjectKind.CSET:
            raise TypeMismatchError("setRead on regular object %s; use read_regular" % oid)
        hist = self._histories.get(oid)
        cset = hist.cset_value(vts) if hist is not None else CSet()
        for update in buffer:
            if update.oid == oid:
                _apply_cset_update(cset, update)
        return cset

    def unmodified(self, oid: ObjectId, vts: VectorTimestamp) -> bool:
        hist = self._histories.get(oid)
        return True if hist is None else hist.unmodified_since(vts)

    def remote_read_payload(self, oid: ObjectId, vts: VectorTimestamp) -> Dict[str, Any]:
        """Serve a remote snapshot read (§5.3): the suffix entries
        visible to the caller plus, for csets, the cached base.  The GC
        watermark is included so the caller can discard its own stale
        local entries (anything visible at the watermark is already
        reflected in this payload)."""
        hist = self._histories.get(oid)
        if hist is None:
            return {"entries": [], "base": None, "gc_vts": None}
        hist._check_not_below_watermark(vts)
        return {
            "entries": [(e.update, e.version) for e in hist.visible_entries(vts)],
            "base": hist.base_counts,
            "gc_vts": hist.gc_vts,
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def gc(self, vts: VectorTimestamp, fold_cset=None) -> int:
        """GC below watermark ``vts``: drop superseded regular versions,
        and fold cset histories for which ``fold_cset(oid)`` is true into
        their cached base.  Also drops fully-empty histories.  A shared
        history is copied only if GC would drop or fold one of its
        entries; one left shared keeps no watermark (DESIGN.md §8)."""
        removed = 0
        empty: List[ObjectId] = []
        for oid, hist in self._histories.items():
            fold = bool(fold_cset and fold_cset(oid))
            if hist.__class__ is SharedHistory:
                if not hist.collectible(vts, fold):
                    continue
                hist = self._histories[oid] = hist.copy()
            removed += hist.gc_before(vts, fold_cset=fold)
            if hist.is_empty():
                empty.append(oid)
        for oid in empty:
            del self._histories[oid]
        return removed

    def snapshot_state(self, vts: VectorTimestamp) -> Dict[ObjectId, Any]:
        """Materialize every object's value at snapshot ``vts`` (test aid)."""
        state: Dict[ObjectId, Any] = {}
        for oid in self._histories:
            if oid.kind is ObjectKind.CSET:
                state[oid] = self.read_cset(oid, vts)
            else:
                state[oid] = self.read_regular(oid, vts)
        return state

    # ------------------------------------------------------------------
    # Serialization (checkpointing)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[ObjectId, Dict[str, Any]]:
        """The checkpoint: private histories (shared ones are the preload image)."""
        return {oid: hist.dump() for oid, hist in self._histories.items()
                if hist.__class__ is not SharedHistory}

    def export_container(self, cid: str) -> Dict[ObjectId, Dict[str, Any]]:
        """Dump the retained histories of one container's objects --
        the replica-backfill payload a site joining the container's
        replica set installs (partial replication, DESIGN.md §13)."""
        return {
            oid: hist.dump()
            for oid, hist in self._histories.items()
            if oid.container == cid
        }

    def install(self, dumped: Dict[ObjectId, Dict[str, Any]]) -> int:
        """Replace this site's histories of the dumped objects: with a
        checkpoint, or with a replica backfill from :meth:`export_container`
        (the installer was not a replica until now, so every record it
        received for them arrived trimmed and its histories are empty)."""
        for oid, state in dumped.items():
            self._histories[oid] = ObjectHistory.load(oid, state)
        return len(dumped)

    @classmethod
    def load(cls, state: Dict[ObjectId, Dict[str, Any]]) -> "SiteHistories":
        hists = cls()
        hists.install(state)
        return hists
