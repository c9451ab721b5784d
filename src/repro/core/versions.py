"""Versions and vector timestamps (paper §5.2).

The centralized PSI specification uses monotonic timestamps, which are
expensive to produce across sites.  The Walter implementation replaces
them with:

* a **version** ``⟨site, seqno⟩`` assigned to a transaction at commit --
  the site where it executed plus a per-site sequence number, and
* a **vector timestamp** representing a snapshot: one sequence number per
  site, counting how many transactions of that site are in the snapshot.

A version ``⟨site, seqno⟩`` is *visible* to a vector timestamp ``VTS``
iff ``seqno <= VTS[site]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Version:
    """Commit version ``⟨site, seqno⟩`` of a transaction.

    Ordering (site-major) is defined only so versions can be sorted for
    stable test output; protocol code never relies on cross-site order.
    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): every
    record, history entry and WAL run holds one.
    """

    __slots__ = ("site", "seqno", "_hash")

    site: int
    seqno: int

    def __post_init__(self):
        # Versions key history maps and visibility checks; precompute the
        # same field-tuple hash the dataclass machinery would generate.
        object.__setattr__(self, "_hash", hash((self.site, self.seqno)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor, which keeps the cached hash
        # out of the pickled form: the bytes do not depend on the
        # process (tests/net/test_determinism.py).
        return (Version, (self.site, self.seqno))

    def __str__(self) -> str:
        return "<%d:%d>" % (self.site, self.seqno)


class VectorTimestamp:
    """An immutable snapshot vector: seqno per site.

    Immutability keeps snapshot semantics honest -- a transaction's
    ``startVTS`` must not drift while the transaction runs.  Servers hold a
    *current* vector and replace it on every commit via :meth:`advance` /
    :meth:`with_entry`.
    """

    __slots__ = ("_seqnos",)

    def __init__(self, seqnos: Sequence[int]):
        self._seqnos: Tuple[int, ...] = tuple(int(s) for s in seqnos)
        if any(s < 0 for s in self._seqnos):
            raise ValueError("sequence numbers must be >= 0: %r" % (seqnos,))

    @classmethod
    def _wrap(cls, seqnos: Tuple[int, ...]) -> "VectorTimestamp":
        """Internal constructor for values derived from an existing
        (already validated) vector -- skips the per-entry validation."""
        vts = cls.__new__(cls)
        vts._seqnos = seqnos
        return vts

    @classmethod
    def zeros(cls, n_sites: int) -> "VectorTimestamp":
        return cls._wrap((0,) * n_sites)

    @property
    def n_sites(self) -> int:
        return len(self._seqnos)

    def __getitem__(self, site: int) -> int:
        return self._seqnos[site]

    def __iter__(self) -> Iterator[int]:
        return iter(self._seqnos)

    def __len__(self) -> int:
        return len(self._seqnos)

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorTimestamp) and self._seqnos == other._seqnos

    def __hash__(self) -> int:
        return hash(self._seqnos)

    def __reduce__(self):
        # Pickle the bare seqno tuple, so the bytes carry no cached hash
        # (tests/net/test_determinism.py); ``_wrap`` skips the per-entry
        # validation on load.
        return (VectorTimestamp._wrap, (self._seqnos,))

    def __repr__(self) -> str:
        return "VTS(%s)" % (", ".join(str(s) for s in self._seqnos))

    def advance(self, site: int) -> "VectorTimestamp":
        """A copy with ``site``'s entry incremented by one."""
        seqnos = list(self._seqnos)
        seqnos[site] += 1
        return VectorTimestamp._wrap(tuple(seqnos))

    def with_entry(self, site: int, seqno: int) -> "VectorTimestamp":
        """A copy with ``site``'s entry replaced by ``seqno``."""
        if seqno < 0:
            raise ValueError("sequence numbers must be >= 0: %r" % (seqno,))
        seqnos = list(self._seqnos)
        seqnos[site] = int(seqno)
        return VectorTimestamp._wrap(tuple(seqnos))

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Element-wise maximum (join in the vector-clock lattice)."""
        self._check_same_width(other)
        return VectorTimestamp._wrap(
            tuple(max(a, b) for a, b in zip(self._seqnos, other._seqnos))
        )

    def meet(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Element-wise minimum (meet in the vector-clock lattice) --
        used to fold active transactions' snapshots into a GC watermark
        no live read can be below."""
        self._check_same_width(other)
        return VectorTimestamp._wrap(
            tuple(min(a, b) for a, b in zip(self._seqnos, other._seqnos))
        )

    def dominates(self, other: "VectorTimestamp") -> bool:
        """True iff every entry of self >= the matching entry of other.

        This is the ``CommittedVTS >= x.startVTS`` test of Fig 13: the
        local site has committed every transaction in x's snapshot.
        """
        a = self._seqnos
        b = other._seqnos
        if len(a) != len(b):
            self._check_same_width(other)
        for x, y in zip(a, b):
            if x < y:
                return False
        return True

    def __ge__(self, other: "VectorTimestamp") -> bool:
        return self.dominates(other)

    def __le__(self, other: "VectorTimestamp") -> bool:
        return other.dominates(self)

    def visible(self, version: Version) -> bool:
        """Is ``version`` visible to this snapshot?  (§5.2)"""
        if not 0 <= version.site < len(self._seqnos):
            raise ValueError("version %s outside site universe" % (version,))
        return version.seqno <= self._seqnos[version.site]

    def _check_same_width(self, other: "VectorTimestamp") -> None:
        if len(self._seqnos) != len(other._seqnos):
            raise ValueError(
                "vector width mismatch: %d vs %d"
                % (len(self._seqnos), len(other._seqnos))
            )


class PlanningClock:
    """A mutable, list-backed scratch copy of a server clock (GotVTS or
    CommittedVTS) for planning a run of remote applies or commits: Fig 13
    admits each transaction against a clock the previous one advanced,
    and :meth:`admit` advances in place where an immutable
    :class:`VectorTimestamp` would be rebuilt per record.  A plan is
    never installed as the server's clock.

    A plan's clock only grows, so a snapshot it once covered stays
    covered: the plan remembers the last one (by identity) and skips
    the comparison for it.  Records of one batch share their decoded
    snapshot objects, so most admits pay no vector-wide loop."""

    __slots__ = ("_seqnos", "_covered")

    def __init__(self, vts: VectorTimestamp):
        self._seqnos = list(vts._seqnos)
        self._covered: Optional[VectorTimestamp] = None

    def __getitem__(self, site: int) -> int:
        return self._seqnos[site]

    def admit(self, site: int, seqno: int, start_vts: VectorTimestamp) -> bool:
        """Fig 13's receiver guard for transaction ``<site, seqno>``: the
        clock holds exactly ``seqno - 1`` of ``site`` and covers the
        snapshot ``start_vts``.  When it holds, counts the transaction in."""
        seqnos = self._seqnos
        if seqnos[site] != seqno - 1:
            return False
        if start_vts is not self._covered:
            needed = start_vts._seqnos
            if len(needed) != len(seqnos):
                start_vts._check_same_width(self)
            for have, need in zip(seqnos, needed):
                if have < need:
                    return False
            self._covered = start_vts
        seqnos[site] = seqno
        return True


def merge_all(vectors: Iterable[VectorTimestamp]) -> VectorTimestamp:
    """Join of a non-empty collection of vector timestamps."""
    result = None
    for vts in vectors:
        result = vts if result is None else result.merge(vts)
    if result is None:
        raise ValueError("merge_all of empty collection")
    return result
