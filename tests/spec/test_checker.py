"""Tests for the PSI trace checker: it must accept legal executions and
flag each property violation."""

import random
import time

from repro.core import (
    CSetAdd,
    DataUpdate,
    ObjectId,
    ObjectKind,
    VectorTimestamp,
    Version,
    write_set,
)
from repro.spec import (
    ExecutionTrace,
    TracedRead,
    TracedTx,
    check_commit_causality,
    check_no_write_write_conflicts,
    check_site_snapshot_reads,
    check_trace,
)

A = ObjectId("t", "A", ObjectKind.REGULAR)
B = ObjectId("t", "B", ObjectKind.REGULAR)
S = ObjectId("t", "S", ObjectKind.CSET)


def traced(tid, site, start, version, updates):
    return TracedTx(
        tid=tid,
        site=site,
        start_vts=VectorTimestamp(start),
        version=version,
        updates=updates,
        write_set=write_set(updates),
    )


def test_clean_two_site_trace_passes():
    trace = ExecutionTrace(n_sites=2)
    t1 = traced("t1", 0, [0, 0], Version(0, 1), [DataUpdate(A, 1)])
    t2 = traced("t2", 1, [0, 0], Version(1, 1), [DataUpdate(B, 2)])
    trace.record_commit(t1)
    trace.record_commit(t2)
    # Long-fork commit orders: each site sees its own first -- legal PSI.
    trace.record_site_commit(0, Version(0, 1))
    trace.record_site_commit(0, Version(1, 1))
    trace.record_site_commit(1, Version(1, 1))
    trace.record_site_commit(1, Version(0, 1))
    trace.record_read(TracedRead("r1", 0, VectorTimestamp([1, 0]), A, 1))
    trace.record_read(TracedRead("r1", 0, VectorTimestamp([1, 0]), B, None))
    assert check_trace(trace) == []


def test_concurrent_conflicting_writes_flagged():
    trace = ExecutionTrace(n_sites=2)
    # Both wrote A; neither is in the other's snapshot.
    trace.record_commit(traced("t1", 0, [0, 0], Version(0, 1), [DataUpdate(A, 1)]))
    trace.record_commit(traced("t2", 1, [0, 0], Version(1, 1), [DataUpdate(A, 2)]))
    violations = check_no_write_write_conflicts(trace)
    assert len(violations) == 1
    assert "somewhere-concurrent" in violations[0].detail


def test_causally_ordered_conflicting_writes_pass():
    trace = ExecutionTrace(n_sites=2)
    trace.record_commit(traced("t1", 0, [0, 0], Version(0, 1), [DataUpdate(A, 1)]))
    # t2's snapshot [1,0] includes t1 -> causally ordered, no conflict.
    trace.record_commit(traced("t2", 1, [1, 0], Version(1, 1), [DataUpdate(A, 2)]))
    assert check_no_write_write_conflicts(trace) == []


def test_cset_updates_never_conflict():
    trace = ExecutionTrace(n_sites=2)
    trace.record_commit(traced("t1", 0, [0, 0], Version(0, 1), [CSetAdd(S, "x")]))
    trace.record_commit(traced("t2", 1, [0, 0], Version(1, 1), [CSetAdd(S, "x")]))
    assert check_no_write_write_conflicts(trace) == []


def _pairwise_ww_reference(trace, abandoned=frozenset()):
    """The all-pairs enumeration the indexed checker replaced, kept as
    the reference for which violations it reports and in which order."""
    txs = [t for t in trace.transactions.values() if t.version not in abandoned]
    out = []
    for i, t1 in enumerate(txs):
        for t2 in txs[i + 1:]:
            overlap = t1.write_set & t2.write_set
            if not overlap:
                continue
            if not (
                t2.start_vts.visible(t1.version) or t1.start_vts.visible(t2.version)
            ):
                out.append(
                    "no-write-write-conflicts: %s and %s are somewhere-concurrent "
                    "and both wrote %s"
                    % (t1.tid, t2.tid, sorted(str(o) for o in overlap))
                )
    return out


def test_indexed_ww_check_matches_pairwise_reference():
    rng = random.Random(7)
    oids = [ObjectId("t", "k%d" % k, ObjectKind.REGULAR) for k in range(12)]
    trace = ExecutionTrace(n_sites=3)
    seqnos = [0, 0, 0]
    for n in range(120):
        site = rng.randrange(3)
        seqnos[site] += 1
        # Snapshots lag at random, so some writers of a shared key are
        # ordered and some are somewhere-concurrent; some pairs share two.
        start = [rng.randint(0, s) for s in seqnos]
        start[site] = seqnos[site] - 1
        updates = [DataUpdate(o, n) for o in rng.sample(oids, rng.randint(1, 3))]
        if n % 10 == 0:
            updates.append(CSetAdd(S, n))
        trace.record_commit(
            traced("t%d" % n, site, start, Version(site, seqnos[site]), updates)
        )
    for exempt in (frozenset(), {Version(0, 1), Version(2, 2)}):
        expected = _pairwise_ww_reference(trace, exempt)
        got = [str(v) for v in check_no_write_write_conflicts(trace, exempt)]
        assert got == expected
        # Non-vacuous: many conflicts, some over two shared objects.
        assert len(expected) > 20
        assert any("', '" in line for line in expected)


def test_ww_check_is_not_quadratic_on_disjoint_writes():
    trace = ExecutionTrace(n_sites=2)
    for n in range(20_000):
        oid = ObjectId("t", "k%d" % n, ObjectKind.REGULAR)
        trace.record_commit(
            traced("t%d" % n, n % 2, [0, 0], Version(n % 2, n // 2 + 1), [DataUpdate(oid, n)])
        )
    began = time.perf_counter()
    assert check_no_write_write_conflicts(trace) == []
    assert time.perf_counter() - began < 2.0


def test_commit_causality_violation_flagged():
    trace = ExecutionTrace(n_sites=2)
    t1 = traced("t1", 0, [0, 0], Version(0, 1), [DataUpdate(A, 1)])
    t2 = traced("t2", 0, [1, 0], Version(0, 2), [DataUpdate(B, 2)])  # saw t1
    trace.record_commit(t1)
    trace.record_commit(t2)
    trace.record_site_commit(0, Version(0, 1))
    trace.record_site_commit(0, Version(0, 2))
    # Site 1 commits t2 before t1: violates Property 3.
    trace.record_site_commit(1, Version(0, 2))
    trace.record_site_commit(1, Version(0, 1))
    violations = check_commit_causality(trace)
    assert len(violations) == 1
    assert "committed after" in violations[0].detail


def test_commit_causality_ok_when_order_preserved():
    trace = ExecutionTrace(n_sites=2)
    t1 = traced("t1", 0, [0, 0], Version(0, 1), [DataUpdate(A, 1)])
    t2 = traced("t2", 0, [1, 0], Version(0, 2), [DataUpdate(B, 2)])
    trace.record_commit(t1)
    trace.record_commit(t2)
    for site in (0, 1):
        trace.record_site_commit(site, Version(0, 1))
        trace.record_site_commit(site, Version(0, 2))
    assert check_commit_causality(trace) == []


def test_stale_read_flagged():
    trace = ExecutionTrace(n_sites=1)
    trace.record_commit(traced("t1", 0, [0], Version(0, 1), [DataUpdate(A, 1)]))
    trace.record_site_commit(0, Version(0, 1))
    # Snapshot [1] must see A=1, but the read observed None.
    trace.record_read(TracedRead("r", 0, VectorTimestamp([1]), A, None))
    violations = check_site_snapshot_reads(trace)
    assert len(violations) == 1
    assert "snapshot" in violations[0].detail


def test_future_read_flagged():
    trace = ExecutionTrace(n_sites=1)
    trace.record_commit(traced("t1", 0, [0], Version(0, 1), [DataUpdate(A, 1)]))
    trace.record_site_commit(0, Version(0, 1))
    # Snapshot [0] must NOT see A=1.
    trace.record_read(TracedRead("r", 0, VectorTimestamp([0]), A, 1))
    assert len(check_site_snapshot_reads(trace)) == 1


def test_cset_read_checked_against_replay():
    trace = ExecutionTrace(n_sites=1)
    trace.record_commit(traced("t1", 0, [0], Version(0, 1), [CSetAdd(S, "x")]))
    trace.record_site_commit(0, Version(0, 1))
    trace.record_read(TracedRead("r", 0, VectorTimestamp([1]), S, {"x": 1}))
    assert check_site_snapshot_reads(trace) == []
    trace.record_read(TracedRead("r2", 0, VectorTimestamp([1]), S, {"x": 2}))
    assert len(check_site_snapshot_reads(trace)) == 1


def test_unknown_version_in_site_order_flagged():
    trace = ExecutionTrace(n_sites=1)
    trace.record_site_commit(0, Version(0, 7))
    violations = check_site_snapshot_reads(trace)
    assert len(violations) == 1
    assert "unknown version" in violations[0].detail


def test_read_at_silent_site_expects_nil():
    trace = ExecutionTrace(n_sites=2)
    trace.record_read(TracedRead("r", 1, VectorTimestamp([0, 0]), A, None))
    assert check_site_snapshot_reads(trace) == []
