"""Bounded-search *acceptance* checkers for tiny histories.

Where the witness oracles in :mod:`repro.protocols.oracles` verify a run
against the witness its protocol recorded, these checkers answer the
pure acceptance question -- "does ANY witness exist?" -- by exhaustive
search.  They are exponential and only meant for histories of <= ~5
transactions: the anomaly matrix (:mod:`repro.spec.anomalies`, one
literal history per row, one :data:`ACCEPTS` entry per column) and the
property-based lattice tests, where they make the inclusion lattice
executable:

    accepts_strict_serializable => accepts_snapshot_isolation
        => accepts_psi => accepts_nmsi => accepts_eventual

All four snapshot-family levels share one semantic skeleton: choose a
global chain order (per-key version order) and, per committed
transaction, a dependency-closed snapshot set that explains its reads
and orders write-conflicting transactions.  The levels differ only in
which extra constraints the snapshot assignment must satisfy:

* strict serializability -- snapshot = everything before me in a total
  order that respects real time;
* (strong) snapshot isolation -- snapshots are prefixes of the chain
  order and contain every transaction that finished before I began;
* PSI -- snapshots are per-site monotone (a transaction sees everything
  a same-site predecessor saw, and the predecessor itself);
* NMSI -- any dependency-closed, conflict-ordering snapshot;
* eventual -- reads may observe any written value, intermediate or
  uncommitted ones included, a ``frozenset`` of written values (merged
  siblings), or the initial state, but never a fabricated value.

In PSI and NMSI a snapshot never holds a transaction that began after
the reader finished: a read returns ``Log[site]`` up to ``startTs``.

Timing is part of the model: each :class:`LiteTx` carries a real-time
interval ``[begin, end]``.  This is what makes the chain a chain -- the
operational SI/PSI specifications bind snapshots to session/real time,
which is why plain (timing-blind) serializability sits on a side branch
of the lattice rather than between strict serializability and SI (see
:mod:`repro.protocols.levels`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Sequence, Tuple

from ..protocols.levels import (
    EVENTUAL,
    LATTICE_CHAIN,
    NMSI,
    PSI,
    SERIALIZABILITY,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
)

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"

#: ("read", key, observed_value) or ("write", key, value)
LiteOp = Tuple[str, str, Any]


@dataclass(frozen=True)
class LiteTx:
    """One transaction of a tiny acceptance-test history."""

    tid: str
    site: int
    begin: float
    end: float
    status: str
    ops: Tuple[LiteOp, ...]

    def writes(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for kind, key, value in self.ops:
            if kind == "write":
                out[key] = value
        return out

    def write_set(self) -> FrozenSet[str]:
        return frozenset(self.writes())


def _committed(history: Sequence[LiteTx]) -> List[LiteTx]:
    return [t for t in history if t.status == COMMITTED]


def _reads_explained(tx: LiteTx, snapshot: Sequence[LiteTx]) -> bool:
    """Do ``tx``'s reads match the last writer per key in ``snapshot``
    (own buffered writes win)?  ``snapshot`` is in chain order."""
    state: Dict[str, Any] = {}
    for u in snapshot:
        state.update(u.writes())
    buffered: Dict[str, Any] = {}
    for kind, key, value in tx.ops:
        if kind == "write":
            buffered[key] = value
        else:
            expected = buffered.get(key, state.get(key))
            if value != expected:
                return False
    return True


def _respects_real_time(order: Sequence[LiteTx]) -> bool:
    position = {t.tid: i for i, t in enumerate(order)}
    for a in order:
        for b in order:
            if a.end < b.begin and position[a.tid] > position[b.tid]:
                return False
    return True


def accepts_eventual(history: Sequence[LiteTx]) -> bool:
    """Reads never fabricate: every observed value was written by some
    write op (any status, overwritten ones included; replicas may expose
    uncommitted state), is a non-empty ``frozenset`` of such values (a
    conflicting fork's merged siblings), or is the initial ``None``."""
    written: Dict[str, set] = {}
    for t in history:
        for kind, key, value in t.ops:
            if kind == "write":
                written.setdefault(key, set()).add(value)
    for t in _committed(history):
        buffered = set()
        for kind, key, value in t.ops:
            if kind == "write":
                buffered.add(key)
            elif key not in buffered and value is not None:
                seen = value if isinstance(value, frozenset) else {value}
                if not seen or not seen <= written.get(key, set()):
                    return False
    return True


def accepts_serializable(history: Sequence[LiteTx]) -> bool:
    """Timing-blind: some serial order explains every committed read."""
    txs = _committed(history)
    return any(
        all(_reads_explained(t, order[:i]) for i, t in enumerate(order))
        for order in itertools.permutations(txs)
    )


def accepts_strict_serializable(history: Sequence[LiteTx]) -> bool:
    """Some serial order that respects real time explains every read."""
    txs = _committed(history)
    for order in itertools.permutations(txs):
        if not _respects_real_time(order):
            continue
        if all(_reads_explained(t, order[:i]) for i, t in enumerate(order)):
            return True
    return False


def _conflicts_ordered(
    txs: Sequence[LiteTx], snapshots: Dict[str, FrozenSet[str]]
) -> bool:
    """Write-conflicting committed transactions must be snapshot-ordered
    (one observed the other) -- the no-lost-update rule."""
    for i, a in enumerate(txs):
        for b in txs[i + 1:]:
            if not (a.write_set() & b.write_set()):
                continue
            if a.tid not in snapshots[b.tid] and b.tid not in snapshots[a.tid]:
                return False
    return True


def accepts_snapshot_isolation(history: Sequence[LiteTx]) -> bool:
    """Strong SI: a single commit order; snapshots are prefixes of it,
    within real time (everything that finished before I began is in my
    snapshot, and I commit after my snapshot point)."""
    txs = _committed(history)
    for order in itertools.permutations(txs):
        if not _respects_real_time(order):
            continue
        position = {t.tid: i for i, t in enumerate(order)}
        choices: List[List[int]] = []
        for t in order:
            lower = 0
            for u in txs:
                if u.end < t.begin:
                    lower = max(lower, position[u.tid] + 1)
            choices.append(list(range(lower, position[t.tid] + 1)))
        for snaps in itertools.product(*choices):
            snapshots = {
                t.tid: frozenset(u.tid for u in order[: snaps[i]])
                for i, t in enumerate(order)
            }
            if not _conflicts_ordered(txs, snapshots):
                continue
            if all(
                _reads_explained(t, order[: snaps[i]]) for i, t in enumerate(order)
            ):
                return True
    return False


def _snapshot_search(history: Sequence[LiteTx], monotonic_sites: bool) -> bool:
    """Shared PSI/NMSI search: a chain order plus per-transaction
    dependency-closed snapshot sets drawn from each transaction's chain
    past, less what began after the transaction ended."""
    txs = _committed(history)
    for order in itertools.permutations(txs):
        position = {t.tid: i for i, t in enumerate(order)}
        past = {
            t.tid: [u.tid for u in order[: position[t.tid]] if not t.end < u.begin]
            for t in txs
        }
        choices = [
            [frozenset(c) for r in range(len(past[t.tid]) + 1)
             for c in itertools.combinations(past[t.tid], r)]
            for t in order
        ]
        for assignment in itertools.product(*choices):
            snapshots = {t.tid: assignment[i] for i, t in enumerate(order)}
            ok = True
            for t in order:
                snap = snapshots[t.tid]
                # Dependency closure.
                if any(not snapshots[u] <= snap for u in snap):
                    ok = False
                    break
                if monotonic_sites:
                    # Session/site monotonicity: a same-site predecessor
                    # (in real time) and its snapshot are included.
                    for u in txs:
                        if u.tid != t.tid and u.site == t.site and u.end < t.begin:
                            if u.tid not in snap or not snapshots[u.tid] <= snap:
                                ok = False
                                break
                    if not ok:
                        break
            if not ok:
                continue
            if not _conflicts_ordered(txs, snapshots):
                continue
            if all(
                _reads_explained(
                    t,
                    [u for u in order if u.tid in snapshots[t.tid]],
                )
                for t in order
            ):
                return True
    return False


def accepts_psi(history: Sequence[LiteTx]) -> bool:
    """PSI: dependency-closed snapshots, conflict ordering, and per-site
    monotone sessions."""
    return _snapshot_search(history, monotonic_sites=True)


def accepts_nmsi(history: Sequence[LiteTx]) -> bool:
    """NMSI: dependency-closed snapshots and conflict ordering only --
    snapshots may go backwards between a session's transactions."""
    return _snapshot_search(history, monotonic_sites=False)


#: One checker per isolation level of :mod:`repro.protocols.levels`.
ACCEPTS: Dict[str, Callable[[Sequence[LiteTx]], bool]] = {
    STRICT_SERIALIZABILITY: accepts_strict_serializable,
    SERIALIZABILITY: accepts_serializable,
    SNAPSHOT_ISOLATION: accepts_snapshot_isolation,
    PSI: accepts_psi,
    NMSI: accepts_nmsi,
    EVENTUAL: accepts_eventual,
}

#: The operational chain, strongest first, as (level name, checker).
ACCEPTANCE_CHAIN = [(level, ACCEPTS[level]) for level in LATTICE_CHAIN]
