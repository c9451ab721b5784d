"""One definition per isolation level: a witness verifier, and a bounded
search that runs it.

A history is a list of :class:`TxRecord` -- what each transaction's
client observed: its site, its real-time interval ``[begin, end]``, the
values its reads returned, its writes and its outcome.  A *witness* for
a history is ``(order, visible)``:

* ``order`` lists the committed transactions;
* ``visible[t]`` is the set of committed *writers* whose effects ``t``'s
  snapshot holds.

:func:`violations` checks a witness against a level, and it is the only
place a level is defined.  Every snapshot level asks that each visible
writer comes before ``t`` in ``order``, that ``visible`` is
dependency-closed, that each read returns the last visible writer's
value (the transaction's own buffered writes win), and that of two
committed writers of the same key one is visible to the other.  On top
of that:

* strict serializability and serializability -- ``visible[t]`` holds
  every writer ordered before ``t``;
* strict serializability and (strong) SI -- ``order`` respects real
  time;
* SI -- ``visible[t]`` is a writer-prefix of ``order`` holding every
  writer up to any transaction that finished before ``t`` began;
* PSI and NMSI -- no visible writer began after ``t`` ended (a read
  returns ``Log[site]`` up to ``startTs``);
* PSI only -- a same-site transaction that finished before ``t`` began
  is visible if it wrote, and so is everything it saw;
* eventual -- no read is fabricated: every observed value was written by
  some write op (intermediate or uncommitted ones included), is a
  ``frozenset`` of such values (merged siblings), or is the initial
  ``None``.  The witness is ignored.

Two callers share the verifier.  The protocol zoo hands it the witness
its servers recorded (``ProtocolBackend.witness()``), at the backend's
own level and at every weaker one: a stronger level's witness is also a
valid weaker-level witness, so no translation is needed.  The
acceptance search (:func:`find_witness`, :data:`ACCEPTS`) asks whether
*any* witness of the level's shape passes -- a prefix per transaction
for the serial levels, a prefix point for SI, a subset of earlier
writers for PSI and NMSI -- over every order of the committed
transactions.  It is exponential and meant for histories of <= ~5
transactions: the anomaly matrix (:mod:`repro.spec.anomalies`) and the
property-based lattice tests, where it makes the inclusion lattice
executable:

    strict serializability => SI => PSI => NMSI => eventual

Timing is part of the model, which is why plain (timing-blind)
serializability sits on a side branch of the lattice rather than
between strict serializability and SI (see :mod:`repro.protocols.levels`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..protocols.levels import (
    ALL_LEVELS,
    EVENTUAL,
    LATTICE_CHAIN,
    NMSI,
    PSI,
    SERIALIZABILITY,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
)
from .checker import Violation

COMMITTED = "COMMITTED"
ABORTED = "ABORTED"
#: The client never learned the outcome (e.g. the commit reply was lost).
ERROR = "ERROR"

#: ("read", key, observed_value) or ("write", key, value)
Op = Tuple[str, str, Any]


@dataclass
class TxRecord:
    """One transaction as its client observed it.  ``end`` stays ``None``
    until the client learns the outcome, so an ``ERROR`` transaction never
    finished before anything began."""

    tid: str
    site: int
    begin: float
    end: Optional[float] = None
    status: Optional[str] = None
    ops: Sequence[Op] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.status == COMMITTED

    def reads(self) -> List[Tuple[str, Any]]:
        return [(key, value) for kind, key, value in self.ops if kind == "read"]

    def writes(self) -> Dict[str, Any]:
        """Final buffered value per written key (last write wins)."""
        return {key: value for kind, key, value in self.ops if kind == "write"}

    def write_set(self) -> FrozenSet[str]:
        return frozenset(self.writes())


class Witness(NamedTuple):
    """``order`` lists the committed tids; ``visible[t]`` is the set of
    committed writers whose effects ``t``'s snapshot holds."""

    order: Sequence[str]
    visible: Mapping[str, FrozenSet[str]]


def witness_by_visibility(visible: Mapping[str, FrozenSet[str]]) -> Witness:
    """A witness whose order lists every transaction after the writers
    it sees.  In a closed, acyclic ``visible`` a visible writer sees
    strictly less than its reader, so sorting by snapshot size does it."""
    return Witness(sorted(visible, key=lambda tid: len(visible[tid])), visible)


def _finished_before(a: TxRecord, b: TxRecord) -> bool:
    return a.end is not None and a.end < b.begin


Check = Callable[[Witness], Iterator[Violation]]


def _eventual(history: Sequence[TxRecord]) -> Check:
    written: Dict[str, set] = {}
    for t in history:
        for kind, key, value in t.ops:
            if kind == "write":
                written.setdefault(key, set()).add(value)

    def check(_witness: Witness) -> Iterator[Violation]:
        for t in history:
            if not t.committed:
                continue
            buffered = set()
            for kind, key, value in t.ops:
                if kind == "write":
                    buffered.add(key)
                elif key not in buffered and value is not None:
                    seen = value if isinstance(value, frozenset) else {value}
                    if not seen or not seen <= written.get(key, set()):
                        yield Violation(
                            "no-fabrication",
                            "%s read %s=%r which nobody wrote" % (t.tid, key, value),
                        )

    return check


def _verifier(level: str, history: Sequence[TxRecord]) -> Check:
    """:func:`violations` for one ``(level, history)``, lazily, so the
    search can stop at the first violation of each candidate."""
    if level not in ALL_LEVELS:
        raise ValueError("unknown isolation level %r" % (level,))
    if level == EVENTUAL:
        return _eventual(history)
    serial = level in (STRICT_SERIALIZABILITY, SERIALIZABILITY)
    real_time = level in (STRICT_SERIALIZABILITY, SNAPSHOT_ISOLATION)
    txs = {t.tid: t for t in history}
    writes = {t.tid: t.writes() for t in history}

    def check(witness: Witness) -> Iterator[Violation]:
        order, visible = witness
        pos = {tid: i for i, tid in enumerate(order)}
        for tid in order:
            if tid not in txs:
                yield Violation("witness", "unknown %s is listed as committed" % tid)
            elif txs[tid].status == ABORTED:
                yield Violation("witness", "aborted %s is listed as committed" % tid)
        for t in history:
            if t.committed and t.tid not in pos:
                yield Violation("witness", "committed %s is not in the order" % t.tid)
        committed = [txs[tid] for tid in order if tid in txs]
        vis = {t.tid: visible.get(t.tid, frozenset()) for t in committed}
        writers = [t.tid for t in committed if writes[t.tid]]
        if real_time:
            for a in committed:
                for b in committed:
                    if _finished_before(a, b) and pos[a.tid] > pos[b.tid]:
                        yield Violation(
                            "real-time",
                            "%s finished before %s began but is ordered after it"
                            % (a.tid, b.tid),
                        )
        for t in committed:
            snap = vis[t.tid]
            for u in sorted(snap):
                if u not in vis or pos[u] >= pos[t.tid]:
                    yield Violation(
                        "visible-order",
                        "%s sees %s, which is not committed before it" % (t.tid, u),
                    )
                elif not vis[u] <= snap:
                    yield Violation(
                        "visible-closed",
                        "%s sees %s but not %s" % (t.tid, u, sorted(vis[u] - snap)),
                    )
                elif level in (PSI, NMSI) and _finished_before(t, txs[u]):
                    yield Violation(
                        "visible-future", "%s sees %s, which began after it ended" % (t.tid, u)
                    )
            earlier = [w for w in writers if pos[w] < pos[t.tid]]
            missing = [w for w in earlier if w not in snap]
            if serial and missing:
                yield Violation(
                    "serial-snapshot", "%s misses earlier writers %s" % (t.tid, missing)
                )
            if level == SNAPSHOT_ISOLATION:
                point = max((pos[u] for u in snap if u in vis), default=-1)
                if any(pos[w] < point for w in missing):
                    yield Violation(
                        "snapshot-prefix", "%s's snapshot is not a prefix of the order" % t.tid
                    )
                for u in committed:
                    if _finished_before(u, t) and any(pos[w] <= pos[u.tid] for w in missing):
                        yield Violation(
                            "snapshot-real-time",
                            "%s misses a writer up to %s, which finished before it began"
                            % (t.tid, u.tid),
                        )
            if level == PSI:
                for u in committed:
                    if (
                        u.site == t.site
                        and _finished_before(u, t)
                        and ((writes[u.tid] and u.tid not in snap) or not vis[u.tid] <= snap)
                    ):
                        yield Violation(
                            "site-monotonic",
                            "%s does not see %s or its snapshot, though it finished "
                            "earlier at site %d" % (t.tid, u.tid, t.site),
                        )
            state: Dict[str, Any] = {}
            for u in sorted((u for u in snap if u in vis), key=pos.__getitem__):
                state.update(writes[u])
            buffered: Dict[str, Any] = {}
            for kind, key, value in t.ops:
                if kind == "write":
                    buffered[key] = value
                    continue
                expected = buffered[key] if key in buffered else state.get(key)
                if value != expected:
                    yield Violation(
                        "read-value",
                        "%s read %s=%r but its snapshot holds %r" % (t.tid, key, value, expected),
                    )
        for i, a in enumerate(writers):
            for b in writers[i + 1:]:
                overlap = writes[a].keys() & writes[b].keys()
                if overlap and a not in vis[b] and b not in vis[a]:
                    yield Violation(
                        "write-conflict",
                        "%s and %s both wrote %s and neither sees the other"
                        % (a, b, sorted(overlap)),
                    )

    return check


def violations(level: str, history: Sequence[TxRecord], witness: Witness) -> List[Violation]:
    """Every way ``witness`` fails to show ``history`` is ``level``-isolated
    (empty: it does).  A transaction whose client saw ``ERROR`` counts as
    committed if and only if the witness orders it."""
    return list(_verifier(level, history)(witness))


def _candidates(level: str, history: Sequence[TxRecord]) -> Iterator[Witness]:
    """Every witness of the level's shape over the committed transactions."""
    if level == EVENTUAL:
        yield Witness((), {})
        return
    writers = {t.tid for t in history if t.committed and t.write_set()}
    for order in itertools.permutations(t.tid for t in history if t.committed):
        choices = []
        for i, tid in enumerate(order):
            earlier = [u for u in order[:i] if u in writers]
            if level in (STRICT_SERIALIZABILITY, SERIALIZABILITY):
                snapshots = [earlier]
            elif level == SNAPSHOT_ISOLATION:
                snapshots = [earlier[:k] for k in range(len(earlier) + 1)]
            else:
                snapshots = [
                    c for r in range(len(earlier) + 1)
                    for c in itertools.combinations(earlier, r)
                ]
            choices.append([frozenset(s) for s in snapshots])
        for snapshots in itertools.product(*choices):
            yield Witness(order, dict(zip(order, snapshots)))


def find_witness(level: str, history: Sequence[TxRecord]) -> Optional[Witness]:
    """A witness of the level's shape that :func:`violations` accepts, or
    ``None`` if the level does not admit ``history``."""
    check = _verifier(level, history)
    for witness in _candidates(level, history):
        if next(check(witness), None) is None:
            return witness
    return None


def _accepts(level: str) -> Callable[[Sequence[TxRecord]], bool]:
    return lambda history: find_witness(level, history) is not None


#: One acceptance checker per isolation level of :mod:`repro.protocols.levels`.
ACCEPTS: Dict[str, Callable[[Sequence[TxRecord]], bool]] = {
    level: _accepts(level) for level in ALL_LEVELS
}

#: The operational chain, strongest first, as (level name, checker).
ACCEPTANCE_CHAIN = [(level, ACCEPTS[level]) for level in LATTICE_CHAIN]
