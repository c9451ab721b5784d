"""``RecordIndex``: commit records by version in per-origin seqno runs."""

import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import VectorTimestamp, Version
from repro.core.transaction import CommitRecord, RecordIndex


def rec(site, seqno):
    return CommitRecord("t%d-%d" % (site, seqno), site, seqno, VectorTimestamp([0, 0, 0]), [])


def index_of(*versions):
    index = RecordIndex()
    for site, seqno in versions:
        index[Version(site, seqno)] = rec(site, seqno)
    return index


def test_lookup_len_and_missing_keys():
    index = index_of((0, 1), (0, 2), (1, 5))
    assert len(index) == 3
    assert index[Version(0, 2)].tid == "t0-2"
    assert Version(1, 5) in index and Version(1, 4) not in index
    assert index.get(Version(2, 1)) is None
    with pytest.raises(KeyError):
        index[Version(0, 3)]
    with pytest.raises(KeyError):
        del index[Version(0, 0)]
    # Replacing a record keeps the count.
    index[Version(0, 2)] = rec(0, 2)
    assert len(index) == 3


def test_holes_are_absent_keys():
    index = index_of((0, 1), (0, 4), (0, 7))
    assert len(index) == 3
    assert [v.seqno for v in index] == [1, 4, 7]
    for seqno in (2, 3, 5, 6, 8):
        assert Version(0, seqno) not in index
    assert [r.seqno for r in index.run(0, 1, 6)] == [4]


def test_insert_below_the_base():
    index = index_of((0, 10), (0, 11))
    index[Version(0, 7)] = rec(0, 7)
    assert [v.seqno for v in index] == [7, 10, 11]
    assert Version(0, 8) not in index and index[Version(0, 10)].seqno == 10
    # Below a pruned prefix too: the dead slots are reused.
    del index[Version(0, 7)]
    del index[Version(0, 10)]
    index[Version(0, 8)] = rec(0, 8)
    assert [v.seqno for v in index] == [8, 11]


def test_prefix_and_suffix_delete():
    index = index_of(*[(0, s) for s in range(1, 101)])
    for seqno in range(1, 61):  # GC: an in-order prefix
        del index[Version(0, seqno)]
    assert len(index) == 40
    assert [v.seqno for v in index] == list(range(61, 101))
    _base, head, slots = index._runs[0]
    assert len(slots) - head == 40 and head < len(slots) // 2 + 1  # compacted
    for seqno in range(100, 90, -1):  # recovery: an abandoned suffix
        del index[Version(0, seqno)]
    assert [v.seqno for v in index] == list(range(61, 91))
    for seqno in range(61, 91):
        del index[Version(0, seqno)]
    assert len(index) == 0 and not index._runs and list(index) == []


def test_iteration_is_site_then_seqno_order():
    index = RecordIndex()
    for site, seqno in [(2, 3), (0, 2), (1, 1), (0, 1), (2, 1)]:
        index[Version(site, seqno)] = rec(site, seqno)
    order = [(1, 1), (0, 1), (0, 2), (2, 1), (2, 3)]
    assert list(index) == sorted(Version(s, n) for s, n in order)
    assert [(r.site, r.seqno) for r in index.records()] == sorted(order)
    assert [(v.site, v.seqno) for v, _r in index.items()] == sorted(order)


def test_run_slices():
    index = index_of(*[(1, s) for s in range(5, 15) if s != 9])
    assert [r.seqno for r in index.run(1)] == [5, 6, 7, 8, 10, 11, 12, 13, 14]
    assert [r.seqno for r in index.run(1, 7, 10)] == [8, 10]
    assert [r.seqno for r in index.run(1, 0, 6)] == [5, 6]
    assert [r.seqno for r in index.run(1, 13, 99)] == [14]
    assert index.run(1, 14) == [] and index.run(0) == []
    assert index.run(1, 0, 3) == [] and index.run(1, 0, 4) == []  # below the base


def test_dict_round_trip_and_copies():
    index = index_of((0, 1), (0, 3), (2, 2))
    as_dict = dict(index)
    assert as_dict == {Version(0, 1): index[Version(0, 1)], Version(0, 3): index[Version(0, 3)],
                       Version(2, 2): index[Version(2, 2)]}
    again = RecordIndex(as_dict)
    assert again == index and dict(again) == as_dict
    for clone in (copy.deepcopy(index), pickle.loads(pickle.dumps(index))):
        assert clone == index and clone is not index
        clone[Version(0, 2)] = rec(0, 2)
        assert Version(0, 2) not in index


def test_none_is_not_a_record():
    with pytest.raises(ValueError):
        RecordIndex()[Version(0, 1)] = None


@settings(max_examples=300, deadline=None)
@given(
    present=st.lists(st.integers(1, 24), max_size=16),
    dead=st.integers(0, 16),
    other=st.booleans(),
    start=st.integers(1, 30),
    length=st.integers(1, 8),
)
@example(present=[], dead=0, other=False, start=1, length=3)  # empty index
@example(present=[1, 2, 3], dead=0, other=False, start=4, length=3)  # next seqno
@example(present=[1, 2], dead=0, other=True, start=5, length=2)  # gap
@example(present=[10, 11], dead=0, other=False, start=3, length=4)  # below the base
@example(present=list(range(1, 11)), dead=3, other=False, start=2, length=3)  # dead prefix
def test_put_run_equals_record_by_record(present, dead, other, start, length):
    """``put_run`` of one origin's consecutive records leaves the index
    exactly as one ``__setitem__`` per record does."""
    records = {}

    def record(site, seqno):
        return records.setdefault((site, seqno), rec(site, seqno))

    index = RecordIndex()
    for seqno in present:
        index[Version(0, seqno)] = record(0, seqno)
    if other:
        index[Version(1, 1)] = record(1, 1)
    for seqno in sorted(set(present))[:dead]:  # GC's in-order prefix deletion
        del index[Version(0, seqno)]
    reference = copy.deepcopy(index)
    run = [record(0, seqno) for seqno in range(start, start + length)]
    index.put_run(run)
    for r in run:
        reference[r.version] = r
    assert len(index) == len(reference)
    assert index.run(0) == reference.run(0) and index.run(1) == reference.run(1)
    assert list(index.records()) == list(reference.records())
