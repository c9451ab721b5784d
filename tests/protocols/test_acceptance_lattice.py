"""The acceptance lattice, made executable and property-tested.

Random tiny histories are run through the bounded-search acceptance
checkers (:mod:`repro.spec.acceptance`); acceptance must never invert
along the chain

    strict serializability => SI => PSI => NMSI => eventual

nor along the side branch strict => serializable => eventual, and the
witness the search finds for a level must pass the verifier at every
weaker level -- which is what lets a zoo backend's one witness be
checked down the lattice without translation.  The anomaly matrix's
histories (write skew, long fork, non-monotonic snapshot, the real-time
stale read) pin each inclusion as *strict*.
"""

import pytest

from repro.protocols.levels import (
    ALL_LEVELS,
    EVENTUAL,
    NMSI,
    PSI,
    SERIALIZABILITY,
    SNAPSHOT_ISOLATION,
    STRICT_SERIALIZABILITY,
    weaker_levels,
)
from repro.spec.acceptance import (
    ACCEPTANCE_CHAIN,
    ACCEPTS,
    TxRecord,
    find_witness,
    violations,
)
from repro.spec.anomalies import HISTORIES

hypothesis = pytest.importorskip(
    "hypothesis", reason="property test needs the bundled hypothesis"
)
from hypothesis import given, settings, strategies as st  # noqa: E402

KEYS = ["x", "y"]
VALUES = [1, 2]


def tx(tid, site, begin, end, ops, status="COMMITTED"):
    return TxRecord(
        tid=tid, site=site, begin=begin, end=end, status=status, ops=tuple(ops)
    )


# ----------------------------------------------------------------------
# Canonical histories: each strict inclusion has a separating witness.
# The anomaly rows are the matrix's own histories; only the fabricated
# read is local.
# ----------------------------------------------------------------------
FABRICATED = [
    tx("r", 0, 0.0, 1.0, [("read", "x", 77)]),
]


@pytest.mark.parametrize(
    "history,expected",
    [
        # ALL_LEVELS order: (strict, ser, si, psi, nmsi, eventual)
        (HISTORIES["write_skew"], (False, False, True, True, True, True)),
        (HISTORIES["long_fork"], (False, False, False, True, True, True)),
        (HISTORIES["non_monotonic_snapshot"], (False, True, False, False, True, True)),
        (HISTORIES["real_time_causality_violation"], (False, True, False, True, True, True)),
        (HISTORIES["lost_update"], (False, False, False, False, False, True)),
        (FABRICATED, (False, False, False, False, False, False)),
    ],
    ids=["write-skew", "long-fork", "non-monotonic", "rt-stale", "lost-update",
         "fabricated"],
)
def test_canonical_histories_separate_the_levels(history, expected):
    assert tuple(ACCEPTS[level](history) for level in ALL_LEVELS) == expected


# ----------------------------------------------------------------------
# Property: acceptance never inverts along the lattice.
# ----------------------------------------------------------------------
@st.composite
def histories(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    txs = []
    for i in range(n):
        begin = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
        duration = draw(st.sampled_from([0.5, 1.5]))
        site = draw(st.integers(min_value=0, max_value=1))
        n_ops = draw(st.integers(min_value=1, max_value=3))
        ops = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from(["read", "write"]))
            key = draw(st.sampled_from(KEYS))
            if kind == "write":
                ops.append(("write", key, draw(st.sampled_from(VALUES))))
            else:
                ops.append(("read", key, draw(st.sampled_from([None] + VALUES))))
        status = draw(
            st.sampled_from(["COMMITTED", "COMMITTED", "COMMITTED", "ABORTED"])
        )
        txs.append(
            tx("h%d" % i, site, begin, begin + duration, ops, status=status)
        )
    return txs


@given(histories())
@settings(max_examples=120, deadline=None)
def test_acceptance_monotone_along_the_chain(history):
    verdicts = [(name, checker(history)) for name, checker in ACCEPTANCE_CHAIN]
    for (strong_name, strong_ok), (weak_name, weak_ok) in zip(
        verdicts, verdicts[1:]
    ):
        assert not strong_ok or weak_ok, (
            "%s accepted but weaker %s rejected: %r"
            % (strong_name, weak_name, history)
        )


@given(histories())
@settings(max_examples=120, deadline=None)
def test_side_branch_strict_implies_serializable_implies_eventual(history):
    if ACCEPTS[STRICT_SERIALIZABILITY](history):
        assert ACCEPTS[SERIALIZABILITY](history)
    if ACCEPTS[SERIALIZABILITY](history):
        assert ACCEPTS[EVENTUAL](history)


@given(histories())
@settings(max_examples=120, deadline=None)
def test_a_found_witness_passes_at_every_weaker_level(history):
    for level in ALL_LEVELS:
        witness = find_witness(level, history)
        if witness is None:
            continue
        assert violations(level, history, witness) == []
        for weaker in weaker_levels(level):
            assert violations(weaker, history, witness) == [], (
                "%s witness %r fails at %s" % (level, witness, weaker)
            )


def test_chain_is_ordered_strongest_first():
    names = [name for name, _checker in ACCEPTANCE_CHAIN]
    assert names == [
        "strict_serializability",
        "snapshot_isolation",
        "psi",
        "nmsi",
        "eventual",
    ]


def test_accepts_has_one_checker_per_level():
    assert list(ACCEPTS) == ALL_LEVELS


# ----------------------------------------------------------------------
# A snapshot never holds a transaction that began after the reader ended.
# ----------------------------------------------------------------------
READ_FROM_THE_FUTURE = [
    tx("r", 0, 0.0, 1.0, [("read", "x", 1)]),
    tx("w", 1, 2.0, 3.0, [("write", "x", 1)]),
]


def test_a_read_from_the_future_is_rejected_by_every_snapshot_level():
    # Under the paper's spec r reads Log[0] up to its startTs, and w
    # began after r committed, so no schedule lets r observe w.
    assert not ACCEPTS[STRICT_SERIALIZABILITY](READ_FROM_THE_FUTURE)
    assert not ACCEPTS[SNAPSHOT_ISOLATION](READ_FROM_THE_FUTURE)
    assert not ACCEPTS[PSI](READ_FROM_THE_FUTURE)
    assert not ACCEPTS[NMSI](READ_FROM_THE_FUTURE)
    # Timing-blind and eventual levels only ask that the value exists.
    assert ACCEPTS[SERIALIZABILITY](READ_FROM_THE_FUTURE)
    assert ACCEPTS[EVENTUAL](READ_FROM_THE_FUTURE)


def test_a_reader_overlapping_the_writer_may_still_see_it_under_psi():
    overlapping = [
        tx("r", 0, 0.0, 2.5, [("read", "x", 1)]),
        tx("w", 1, 2.0, 3.0, [("write", "x", 1)]),
    ]
    assert ACCEPTS[PSI](overlapping) and ACCEPTS[NMSI](overlapping)


# ----------------------------------------------------------------------
# Eventual consistency: any written value, never a fabricated one.
# ----------------------------------------------------------------------
def test_eventual_accepts_an_intermediate_write():
    history = [
        tx("w", 0, 0.0, 3.0, [("write", "x", 1), ("write", "x", 2)]),
        tx("r", 1, 1.0, 2.0, [("read", "x", 1)]),
    ]
    assert ACCEPTS[EVENTUAL](history)
    assert not ACCEPTS[NMSI](history)


def test_eventual_accepts_a_sibling_set_of_written_values():
    history = [
        tx("w1", 0, 0.0, 1.0, [("write", "x", 1)]),
        tx("w2", 1, 0.0, 1.0, [("write", "x", 2)]),
        tx("r", 0, 2.0, 3.0, [("read", "x", frozenset({1, 2}))]),
    ]
    assert ACCEPTS[EVENTUAL](history)
    assert not ACCEPTS[NMSI](history)


@pytest.mark.parametrize("observed", [77, frozenset({1, 77}), frozenset()],
                         ids=["value", "sibling-set", "empty-set"])
def test_eventual_rejects_a_fabricated_read(observed):
    history = [
        tx("w", 0, 0.0, 1.0, [("write", "x", 1)]),
        tx("r", 1, 2.0, 3.0, [("read", "x", observed)]),
    ]
    assert not ACCEPTS[EVENTUAL](history)
