"""``PlanningClock`` remembers the last snapshot it found covered.

A plan's clock only grows, so a snapshot object it covered once stays
covered and the memo skips the vector-wide comparison for it.  Checked
against a reference guard that compares every time: admit sequences
draw their snapshots from a small pool of shared vector objects, as a
batch's records share their decoded snapshots."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.versions import PlanningClock, VectorTimestamp

WIDTH = 4


def reference_admit(seqnos, site, seqno, start_vts):
    """Fig 13's receiver guard, with no memo."""
    if seqnos[site] != seqno - 1 or any(h < n for h, n in zip(seqnos, start_vts)):
        return False
    seqnos[site] = seqno
    return True


vector = st.lists(st.integers(0, 6), min_size=WIDTH, max_size=WIDTH)


@settings(max_examples=300, deadline=None)
@given(
    clock=vector,
    pool=st.lists(vector, min_size=1, max_size=4),
    admits=st.lists(
        st.tuples(st.integers(0, WIDTH - 1), st.integers(0, 9), st.integers(0, 3)),
        max_size=40,
    ),
)
def test_memo_matches_a_guard_that_compares_every_time(clock, pool, admits):
    snapshots = [VectorTimestamp(v) for v in pool]
    plan = PlanningClock(VectorTimestamp(clock))
    reference = list(clock)
    for site, seqno, pick in admits:
        start_vts = snapshots[pick % len(snapshots)]
        expected = reference_admit(reference, site, seqno, start_vts)
        assert plan.admit(site, seqno, start_vts) == expected
        # The admitted record's own seqno, as the plan's callers ask next.
        seqno = reference[site] + 1
        assert plan.admit(site, seqno, start_vts) == reference_admit(
            reference, site, seqno, start_vts
        )
    assert [plan[site] for site in range(WIDTH)] == reference


def test_a_covered_snapshot_is_not_compared_again():
    snapshot = VectorTimestamp([1, 0, 0])
    plan = PlanningClock(VectorTimestamp([1, 0, 0]))
    assert plan.admit(1, 1, snapshot)
    snapshot._seqnos = (9, 9, 9)  # never happens: shows the memo is by identity
    assert plan.admit(1, 2, snapshot)
    assert not plan.admit(1, 3, VectorTimestamp([9, 9, 9]))
