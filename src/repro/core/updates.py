"""Transaction update-buffer entries.

A running transaction accumulates updates in a buffer (``x.updates`` in
the paper's pseudocode): ``⟨oid, DATA(data)⟩`` for regular writes and
``⟨setid, ADD(id)⟩`` / ``⟨setid, DEL(id)⟩`` for cset operations.  On commit
the buffer is appended to the per-object histories tagged with the
transaction's version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Hashable, Iterable, List, Union

from ..errors import TypeMismatchError
from .cset import CSet
from .objects import ObjectId, ObjectKind


@dataclass(frozen=True)
class DataUpdate:
    """``⟨oid, DATA(data)⟩`` -- overwrite a regular object."""

    oid: ObjectId
    data: Any

    def __post_init__(self):
        if self.oid.kind is not ObjectKind.REGULAR:
            raise TypeMismatchError(
                "write on cset object %s; csets do not support write (§3.3)" % self.oid
            )

    def __reduce__(self):
        # Constructor-args pickle: hash-seed-free bytes, portable
        # across processes (tests/net/test_determinism.py).
        return (DataUpdate, (self.oid, self.data))


@dataclass(frozen=True)
class CSetAdd:
    """``⟨setid, ADD(id)⟩`` -- increment an element's count in a cset."""

    oid: ObjectId
    elem: Hashable

    def __post_init__(self):
        if self.oid.kind is not ObjectKind.CSET:
            raise TypeMismatchError("setAdd on regular object %s" % self.oid)

    def __reduce__(self):
        return (CSetAdd, (self.oid, self.elem))


@dataclass(frozen=True)
class CSetDel:
    """``⟨setid, DEL(id)⟩`` -- decrement an element's count in a cset."""

    oid: ObjectId
    elem: Hashable

    def __post_init__(self):
        if self.oid.kind is not ObjectKind.CSET:
            raise TypeMismatchError("setDel on regular object %s" % self.oid)

    def __reduce__(self):
        return (CSetDel, (self.oid, self.elem))


Update = Union[DataUpdate, CSetAdd, CSetDel]


def write_set(updates: Iterable[Update]) -> FrozenSet[ObjectId]:
    """The transaction's write-set: oids of regular DATA writes only.

    Fig 11: "The write-set of a transaction consists of all oids to which
    the transaction writes; it excludes updates to set objects" -- cset
    operations commute and are never conflict-checked.
    """
    return frozenset(u.oid for u in updates if isinstance(u, DataUpdate))


def cset_set(updates: Iterable[Update]) -> FrozenSet[ObjectId]:
    """Oids of csets the transaction modifies."""
    return frozenset(u.oid for u in updates if isinstance(u, (CSetAdd, CSetDel)))


def touched_oids(updates: Iterable[Update]) -> FrozenSet[ObjectId]:
    """Every oid the update buffer mentions (regular writes + cset ops)."""
    return frozenset(u.oid for u in updates)


def updates_for(updates: Iterable[Update], oid: ObjectId) -> List[Update]:
    """The sub-sequence of ``updates`` that target ``oid``, in order."""
    return [u for u in updates if u.oid == oid]


def last_data(updates: Iterable[Update], oid: ObjectId):
    """The most recent DATA value written to ``oid``, or a miss marker.

    Returns ``(True, data)`` if the buffer wrote oid, else ``(False, None)``
    -- a transaction's own writes shadow the snapshot (Fig 1/10 read).
    """
    found, data = False, None
    for u in updates:
        if isinstance(u, DataUpdate) and u.oid == oid:
            found, data = True, u.data
    return found, data


def apply_cset_ops(cset: CSet, updates: Iterable[Update], oid: ObjectId) -> CSet:
    """Apply the buffer's ADD/DEL operations for ``oid`` on top of ``cset``."""
    result = cset.copy()
    for u in updates:
        if isinstance(u, CSetAdd) and u.oid == oid:
            result.add(u.elem)
        elif isinstance(u, CSetDel) and u.oid == oid:
            result.rem(u.elem)
    return result
