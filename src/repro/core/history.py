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
paths (Fig 10/Fig 11), so the history is indexed rather than scanned:

* entries are bucketed **per origin site in seqno order** (apply order
  guarantees per-site seqnos are strictly increasing), so the latest
  entry visible to a vector timestamp is one binary search per site
  instead of a scan of the full history;
* a per-object **max-seqno-per-site summary** makes ``unmodified_since``
  an O(sites) comparison;
* cset histories carry an **incremental materialization**: a cached base
  :class:`CSet` equal to the fold of every entry visible at a GC
  watermark, plus the suffix of newer entries.  ``cset_value`` copies
  the base and folds only the suffix, so a hot cset's read cost is
  bounded by the churn since the last GC, not its lifetime update count.

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

from bisect import bisect_right
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import SnapshotTooOldError, TypeMismatchError
from .cset import CSet
from .objects import ObjectId, ObjectKind
from .updates import CSetAdd, CSetDel, DataUpdate, Update
from .versions import VectorTimestamp, Version


class HistoryEntry(NamedTuple):
    """One update plus the version of the transaction that made it."""

    update: Update
    version: Version


#: ``ObjectHistory.append`` builds one entry per applied update at every
#: replica, so it constructs the tuple in C, past the generated
#: Python-level ``__new__``.
_new_entry = tuple.__new__


class _SiteBucket:
    """One origin site's entries, in (strictly increasing) seqno order.

    ``seqnos`` is kept as a parallel list so visibility lookups are a
    plain ``bisect`` over ints; ``orders`` holds each entry's global
    apply index, used to order the per-site winners of a snapshot read.
    """

    __slots__ = ("seqnos", "entries", "orders")

    def __init__(self):
        self.seqnos: List[int] = []
        self.entries: List[HistoryEntry] = []
        self.orders: List[int] = []


class ObjectHistory:
    """The ordered update sequence of a single object at one site."""

    __slots__ = (
        "oid",
        "_entries",
        "_orders",
        "_buckets",
        "_next_order",
        "_base",
        "_base_max_seqno",
        "_floor",
        "_gc_vts",
    )

    def __init__(self, oid: ObjectId):
        self.oid = oid
        #: Suffix entries in apply order (for csets: entries newer than
        #: the base; for regular objects: everything not yet GC'd).
        self._entries: List[HistoryEntry] = []
        self._orders: List[int] = []
        self._buckets: Dict[int, _SiteBucket] = {}
        self._next_order = 0
        #: Cset base: fold of every entry visible at ``_gc_vts`` (csets
        #: only; ``None`` until the first fold).
        self._base: Optional[CSet] = None
        #: Per-site max seqno absorbed below the watermark: cset entries
        #: folded into the base, or regular versions pruned as
        #: superseded.  Keeps ``unmodified_since`` exact for *any*
        #: snapshot and makes the too-old check object-precise.
        self._base_max_seqno: Dict[int, int] = {}
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
        return len(self._entries)

    def __iter__(self) -> Iterator[HistoryEntry]:
        return iter(self._entries)

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
        bucket = self._buckets.get(version.site)
        if bucket is None:
            bucket = self._buckets[version.site] = _SiteBucket()
        # Equal seqnos are one transaction's multiple updates to the same
        # object; only going backwards breaks the bucket's sort order.
        if bucket.seqnos and version.seqno < bucket.seqnos[-1]:
            raise ValueError(
                "non-monotonic apply: %s after seqno %d of site %d in history of %s"
                % (version, bucket.seqnos[-1], version.site, self.oid)
            )
        if self._gc_vts is not None and self._gc_vts.visible(version):
            raise ValueError(
                "version %s appended below the GC watermark %r of %s"
                % (version, self._gc_vts, self.oid)
            )
        entry = _new_entry(HistoryEntry, (update, version))
        order = self._next_order
        self._next_order += 1
        self._entries.append(entry)
        self._orders.append(order)
        bucket.seqnos.append(version.seqno)
        bucket.entries.append(entry)
        bucket.orders.append(order)

    # ------------------------------------------------------------------
    # Snapshot reads
    # ------------------------------------------------------------------
    def visible_entries(self, vts: VectorTimestamp) -> Iterator[HistoryEntry]:
        """Suffix entries whose version is visible to snapshot ``vts``,
        in apply order.  (Cset entries folded into the base are not
        enumerable; use :meth:`cset_value` for the materialized state.)"""
        return (e for e in self._entries if vts.visible(e.version))

    def latest_visible(self, vts: VectorTimestamp) -> Optional[HistoryEntry]:
        """The last visible entry (regular-object snapshot read): one
        binary search per origin site, then the apply-order maximum of
        the per-site winners."""
        best_entry = None
        best_order = -1
        for site, bucket in self._buckets.items():
            i = bisect_right(bucket.seqnos, vts[site]) - 1
            if i >= 0 and bucket.orders[i] > best_order:
                best_order = bucket.orders[i]
                best_entry = bucket.entries[i]
        return best_entry

    def unmodified_since(self, vts: VectorTimestamp) -> bool:
        """Fig 11's ``unmodified(oid, VTS)``: every version of the object
        in the local history is visible to ``vts`` -- i.e. nothing was
        committed here after the snapshot.  O(sites): all entries of a
        site are visible iff its maximum seqno is."""
        for site, bucket in self._buckets.items():
            if bucket.seqnos and not vts.visible(Version(site, bucket.seqnos[-1])):
                return False
        for site, seqno in self._base_max_seqno.items():
            if not vts.visible(Version(site, seqno)):
                return False
        return True

    def cset_value(self, vts: VectorTimestamp) -> CSet:
        """Materialize a cset snapshot: copy of the base plus the fold of
        suffix entries visible to ``vts``.  Cset folds commute, so the
        suffix can be folded per site via the same bisect index."""
        self._check_not_below_watermark(vts)
        cset = self._base.copy() if self._base is not None else CSet()
        for site, bucket in self._buckets.items():
            upto = bisect_right(bucket.seqnos, vts[site])
            for entry in bucket.entries[:upto]:
                _apply_cset_update(cset, entry.update)
        return cset

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
        return [e.version for e in self._entries]

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
        kept = [
            (e, o)
            for e, o in zip(self._entries, self._orders)
            if e.version in keep_set
        ]
        removed = len(self._entries) - len(kept)
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
        replicate).  Returns the number of entries removed/folded."""
        if self.oid.kind is ObjectKind.CSET:
            if not fold_cset:
                return 0
            return self._fold_base(vts)
        last = self.latest_visible(vts)
        if last is None:
            return 0
        kept = [
            (e, o)
            for e, o in zip(self._entries, self._orders)
            if e is last or not vts.visible(e.version)
        ]
        removed = len(self._entries) - len(kept)
        if removed:
            for entry, _order in zip(self._entries, self._orders):
                if entry is last or not vts.visible(entry.version):
                    continue
                site, seqno = entry.version.site, entry.version.seqno
                if seqno > self._base_max_seqno.get(site, -1):
                    self._base_max_seqno[site] = seqno
            self._floor = last.version
            self._rebuild(kept)
        self._advance_watermark(vts)
        return removed

    def _fold_base(self, vts: VectorTimestamp) -> int:
        """Fold every entry visible at ``vts`` into the cset base.  Any
        version visible at ``vts`` has already been applied here (per-site
        apply order is contiguous below ``CommittedVTS``), so no future
        append can land below the new watermark."""
        folded = [
            (e, o) for e, o in zip(self._entries, self._orders) if vts.visible(e.version)
        ]
        if not folded:
            self._advance_watermark(vts)
            return 0
        if self._base is None:
            self._base = CSet()
        for entry, _order in folded:
            _apply_cset_update(self._base, entry.update)
            site, seqno = entry.version.site, entry.version.seqno
            if seqno > self._base_max_seqno.get(site, -1):
                self._base_max_seqno[site] = seqno
        kept = [
            (e, o)
            for e, o in zip(self._entries, self._orders)
            if not vts.visible(e.version)
        ]
        self._rebuild(kept)
        self._advance_watermark(vts)
        return len(folded)

    def _advance_watermark(self, vts: VectorTimestamp) -> None:
        # Monotone join: a returning site's committed frontier can be
        # lowered by recovery truncation, and the watermark must never
        # move backwards (the base cannot be unfolded).
        self._gc_vts = vts if self._gc_vts is None else self._gc_vts.merge(vts)

    def _rebuild(self, kept: List[Tuple[HistoryEntry, int]]) -> None:
        """Reset the suffix structures to ``kept`` (entry, order) pairs,
        preserving apply order and original apply indices."""
        self._entries = [e for e, _o in kept]
        self._orders = [o for _e, o in kept]
        self._buckets = {}
        for entry, order in kept:
            bucket = self._buckets.get(entry.version.site)
            if bucket is None:
                bucket = self._buckets[entry.version.site] = _SiteBucket()
            bucket.seqnos.append(entry.version.seqno)
            bucket.entries.append(entry)
            bucket.orders.append(order)

    def is_empty(self) -> bool:
        return not self._entries and self._base is None

    # ------------------------------------------------------------------
    # Serialization (checkpointing)
    # ------------------------------------------------------------------
    def dump(self) -> Dict[str, Any]:
        """Checkpointable state: base + suffix.  The checkpointer
        deep-copies, so returning live references is fine."""
        return {
            "base": self._base.counts() if self._base is not None else None,
            "base_max_seqno": dict(self._base_max_seqno),
            "floor": self._floor,
            "gc_vts": self._gc_vts,
            "entries": [(e.update, e.version) for e in self._entries],
        }

    @classmethod
    def load(cls, oid: ObjectId, state: Dict[str, Any]) -> "ObjectHistory":
        hist = cls(oid)
        if state["base"] is not None:
            hist._base = CSet(state["base"])
        hist._base_max_seqno = dict(state["base_max_seqno"])
        hist._floor = state["floor"]
        # Entries first, watermark after: a regular history retains its
        # watermark-visible floor entry, which the append-time guard
        # would otherwise reject.
        for update, version in state["entries"]:
            hist.append(update, version)
        hist._gc_vts = state["gc_vts"]
        return hist


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
        history of a first-touched object.  Read paths must use
        :meth:`get` -- reading a nonexistent oid must not allocate."""
        hist = self._histories.get(oid)
        if hist is None:
            hist = ObjectHistory(oid)
            self._histories[oid] = hist
        return hist

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
        the matching object history, tagged with ``version``."""
        for update in updates:
            self.history(update.oid).append(update, version)

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
        their cached base.  Also drops fully-empty histories."""
        removed = 0
        empty: List[ObjectId] = []
        for oid, hist in self._histories.items():
            removed += hist.gc_before(
                vts, fold_cset=bool(fold_cset and fold_cset(oid))
            )
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
        return {oid: hist.dump() for oid, hist in self._histories.items()}

    def export_container(self, cid: str) -> Dict[ObjectId, Dict[str, Any]]:
        """Dump the retained histories of one container's objects --
        the replica-backfill payload a site joining the container's
        replica set installs (partial replication, DESIGN.md §13)."""
        return {
            oid: hist.dump()
            for oid, hist in self._histories.items()
            if oid.container == cid
        }

    def install_container(self, dumped: Dict[ObjectId, Dict[str, Any]]) -> int:
        """Install a replica backfill from :meth:`export_container`.

        Replaces this site's histories of the dumped objects: the
        installer was not a replica until now, so every record it
        received for them arrived trimmed and its local histories are
        empty."""
        for oid, state in dumped.items():
            self._histories[oid] = ObjectHistory.load(oid, state)
        return len(dumped)

    @classmethod
    def load(cls, state: Dict[ObjectId, Dict[str, Any]]) -> "SiteHistories":
        hists = cls()
        for oid, hist_state in state.items():
            hists._histories[oid] = ObjectHistory.load(oid, hist_state)
        return hists
