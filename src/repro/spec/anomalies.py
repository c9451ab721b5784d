"""The anomaly conformance table: nine literal histories, judged per level.

Each anomaly is one small :class:`~repro.spec.acceptance.TxRecord` history
-- sites, real-time intervals and the values its reads observed -- and a
cell of the table is the column's acceptance checker applied to it::

    check_anomaly(anomaly, level) == ACCEPTS[level](HISTORIES[anomaly])

The checkers search exhaustively for a witness -- an order plus the
writers each snapshot holds -- that the level's one definition,
:func:`~repro.spec.acceptance.violations`, accepts, so a "No" means no
execution of that level produces the observation, not that one scripted
schedule failed to.  Adding a row is adding one history.

The level constants live in :mod:`repro.protocols.levels`, the single
registry shared with the protocol zoo; this module re-exports the four
Fig 8 names for compatibility.

``anomaly_table()`` regenerates Fig 8 and ``EXPECTED_TABLE`` is the
figure as printed in the paper.  ``extended_anomaly_table()`` widens the
figure along both axes: two extra columns (strict serializability, NMSI)
and three extra rows (write skew, real-time causality violation,
non-monotonic snapshot) that separate the levels the paper's six rows
cannot -- the test suite asserts both tables agree with their expected
matrices cell by cell.
"""

from __future__ import annotations

from typing import Dict, List

from ..protocols.levels import (
    ALL_LEVELS,
    EVENTUAL,
    FIG8_LEVELS,
    NMSI,
    PSI,
    SERIALIZABILITY,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
)
from .acceptance import ACCEPTS, COMMITTED, Op, TxRecord

#: The paper's four columns, in printed order (compatibility alias).
ISOLATION_LEVELS = list(FIG8_LEVELS)

#: Every column the extended table can check, strongest first.
EXTENDED_ISOLATION_LEVELS = list(ALL_LEVELS)


def _tx(tid: str, site: int, begin: float, end: float, *ops: Op) -> TxRecord:
    return TxRecord(tid, site, begin, end, COMMITTED, ops)


#: One history per anomaly; the initial value of every key is ``None``.
HISTORIES: Dict[str, List[TxRecord]] = {
    # T2 reads T1's intermediate x=1; T1 goes on to write x=2.
    "dirty_read": [
        _tx("T1", 0, 0.0, 3.0, ("write", "x", 1), ("write", "x", 2)),
        _tx("T2", 0, 1.0, 2.0, ("read", "x", 1)),
    ],
    # T2 reads x twice, straddling T1's commit of x=1.
    "non_repeatable_read": [
        _tx("T1", 0, 1.0, 2.0, ("write", "x", 1)),
        _tx("T2", 0, 0.0, 3.0, ("read", "x", None), ("read", "x", 1)),
    ],
    # T1 and T2 both read the initial x and write it at two sites; both
    # commit, and T3 sees T1's value: T2's update is lost.
    "lost_update": [
        _tx("T1", 0, 0.0, 2.0, ("read", "x", None), ("write", "x", 1)),
        _tx("T2", 1, 0.0, 2.0, ("read", "x", None), ("write", "x", 2)),
        _tx("T3", 0, 3.0, 4.0, ("read", "x", 1)),
    ],
    # T1 and T2 write disjoint keys from the same snapshot; the state
    # forks and merges at commit, so T3 reads x=y=1.
    "short_fork": [
        _tx("T1", 0, 0.0, 2.0, ("read", "x", None), ("read", "y", None), ("write", "x", 1)),
        _tx("T2", 0, 0.0, 2.0, ("read", "x", None), ("read", "y", None), ("write", "y", 1)),
        _tx("T3", 0, 3.0, 4.0, ("read", "x", 1), ("read", "y", 1)),
    ],
    # T1 and T2 commit at different sites; after both committed, each
    # site's reader sees only its own site's write.
    "long_fork": [
        _tx("T1", 0, 0.0, 1.0, ("write", "x", 1)),
        _tx("T2", 1, 0.0, 1.0, ("write", "y", 1)),
        _tx("T3", 0, 2.0, 3.0, ("read", "x", 1), ("read", "y", None)),
        _tx("T4", 1, 2.0, 3.0, ("read", "x", None), ("read", "y", 1)),
    ],
    # Concurrent conflicting writes both commit and T3 reads the merged
    # siblings {1, 2}: neither writer saw the other.
    "conflicting_fork": [
        _tx("T1", 0, 0.0, 1.0, ("write", "x", 1)),
        _tx("T2", 1, 0.0, 1.0, ("write", "x", 2)),
        _tx("T3", 0, 2.0, 3.0, ("read", "x", frozenset({1, 2}))),
    ],
    # The two-transaction core of the short fork: "x and y change one
    # at a time" breaks without any third observer.
    "write_skew": [
        _tx("T1", 0, 0.0, 2.0, ("read", "x", None), ("read", "y", None), ("write", "x", 1)),
        _tx("T2", 0, 0.0, 2.0, ("read", "x", None), ("read", "y", None), ("write", "y", 1)),
    ],
    # T2 begins after T1's commit returned, at another site, and reads
    # the pre-T1 state.
    "real_time_causality_violation": [
        _tx("T1", 0, 0.0, 1.0, ("write", "x", 1)),
        _tx("T2", 1, 2.0, 3.0, ("read", "x", None)),
    ],
    # One site observes T1's write, then its next transaction no longer
    # does.
    "non_monotonic_snapshot": [
        _tx("T1", 0, 0.0, 1.0, ("write", "x", 1)),
        _tx("T2", 1, 2.0, 3.0, ("read", "x", 1)),
        _tx("T3", 1, 4.0, 5.0, ("read", "x", None)),
    ],
}

ANOMALY_NAMES = [
    "dirty_read",
    "non_repeatable_read",
    "lost_update",
    "short_fork",
    "long_fork",
    "conflicting_fork",
]

#: Rows beyond Fig 8 that separate the extended columns: write skew is
#: the classic SI-vs-serializability split; the two timing anomalies
#: split strict from plain serializability, strong SI from PSI, and PSI
#: from NMSI.
EXTENDED_ANOMALY_NAMES = list(HISTORIES)

#: Fig 8 as printed in the paper (True = the level allows the anomaly).
EXPECTED_TABLE: Dict[str, Dict[str, bool]] = {
    "dirty_read": {SERIALIZABILITY: False, SNAPSHOT_ISOLATION: False, PSI: False, EVENTUAL: True},
    "non_repeatable_read": {SERIALIZABILITY: False, SNAPSHOT_ISOLATION: False, PSI: False, EVENTUAL: True},
    "lost_update": {SERIALIZABILITY: False, SNAPSHOT_ISOLATION: False, PSI: False, EVENTUAL: True},
    "short_fork": {SERIALIZABILITY: False, SNAPSHOT_ISOLATION: True, PSI: True, EVENTUAL: True},
    "long_fork": {SERIALIZABILITY: False, SNAPSHOT_ISOLATION: False, PSI: True, EVENTUAL: True},
    "conflicting_fork": {SERIALIZABILITY: False, SNAPSHOT_ISOLATION: False, PSI: False, EVENTUAL: True},
}


def _row(strict: bool, ser: bool, si: bool, psi: bool, nmsi: bool, ev: bool) -> Dict[str, bool]:
    return {
        STRICT_SERIALIZABILITY: strict,
        SERIALIZABILITY: ser,
        SNAPSHOT_ISOLATION: si,
        PSI: psi,
        NMSI: nmsi,
        EVENTUAL: ev,
    }


#: The extended matrix over all six levels.  Each cell is regenerated by
#: judging the row's history; the sub-block over Fig 8's rows and columns
#: coincides with ``EXPECTED_TABLE`` (asserted by the test suite).
EXTENDED_EXPECTED_TABLE: Dict[str, Dict[str, bool]] = {
    "dirty_read": _row(False, False, False, False, False, True),
    "non_repeatable_read": _row(False, False, False, False, False, True),
    "lost_update": _row(False, False, False, False, False, True),
    "short_fork": _row(False, False, True, True, True, True),
    "long_fork": _row(False, False, False, True, True, True),
    "conflicting_fork": _row(False, False, False, False, False, True),
    "write_skew": _row(False, False, True, True, True, True),
    "real_time_causality_violation": _row(False, True, False, True, True, True),
    "non_monotonic_snapshot": _row(False, True, False, False, True, True),
}


def check_anomaly(anomaly: str, level: str) -> bool:
    """Does ``level`` accept the history of ``anomaly``?"""
    if anomaly not in HISTORIES:
        raise ValueError("unknown anomaly %r" % (anomaly,))
    if level not in ACCEPTS:
        raise ValueError("unknown isolation level %r" % (level,))
    return ACCEPTS[level](HISTORIES[anomaly])


def anomaly_table() -> Dict[str, Dict[str, bool]]:
    """Regenerate Fig 8: every paper row against every paper column."""
    return {
        anomaly: {level: check_anomaly(anomaly, level) for level in ISOLATION_LEVELS}
        for anomaly in ANOMALY_NAMES
    }


def extended_anomaly_table() -> Dict[str, Dict[str, bool]]:
    """The extended matrix: every anomaly (Fig 8's six plus write skew
    and the two timing anomalies) against every level in the registry."""
    return {
        anomaly: {
            level: check_anomaly(anomaly, level)
            for level in EXTENDED_ISOLATION_LEVELS
        }
        for anomaly in EXTENDED_ANOMALY_NAMES
    }
