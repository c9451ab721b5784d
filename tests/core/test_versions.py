"""Tests for Version and VectorTimestamp (paper §5.2)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import VectorTimestamp, Version, merge_all


def test_zeros():
    vts = VectorTimestamp.zeros(3)
    assert list(vts) == [0, 0, 0]
    assert vts.n_sites == 3


def test_visibility_rule():
    # v = <site, seqno> is visible to VTS iff seqno <= VTS[site].
    vts = VectorTimestamp([2, 4, 5])
    assert vts.visible(Version(0, 2))
    assert vts.visible(Version(1, 1))
    assert not vts.visible(Version(0, 3))
    assert vts.visible(Version(2, 5))
    assert not vts.visible(Version(2, 6))


def test_visible_rejects_unknown_site():
    vts = VectorTimestamp([1, 1])
    with pytest.raises(ValueError):
        vts.visible(Version(5, 1))


def test_advance_is_pure():
    vts = VectorTimestamp([1, 2])
    bumped = vts.advance(0)
    assert list(bumped) == [2, 2]
    assert list(vts) == [1, 2]


def test_with_entry():
    vts = VectorTimestamp([1, 2, 3])
    assert list(vts.with_entry(1, 9)) == [1, 9, 3]


def test_merge_elementwise_max():
    a = VectorTimestamp([1, 5, 0])
    b = VectorTimestamp([3, 2, 0])
    assert list(a.merge(b)) == [3, 5, 0]


def test_dominates_partial_order():
    a = VectorTimestamp([2, 2])
    b = VectorTimestamp([1, 2])
    c = VectorTimestamp([3, 0])
    assert a.dominates(b)
    assert a >= b
    assert b <= a
    assert not a.dominates(c)
    assert not c.dominates(a)  # incomparable


def test_width_mismatch_raises():
    with pytest.raises(ValueError):
        VectorTimestamp([1]).merge(VectorTimestamp([1, 2]))
    with pytest.raises(ValueError):
        VectorTimestamp([1]).dominates(VectorTimestamp([1, 2]))


def test_negative_seqno_rejected():
    with pytest.raises(ValueError):
        VectorTimestamp([0, -1])


def test_equality_and_hash():
    assert VectorTimestamp([1, 2]) == VectorTimestamp([1, 2])
    assert hash(VectorTimestamp([1, 2])) == hash(VectorTimestamp([1, 2]))
    assert VectorTimestamp([1, 2]) != VectorTimestamp([2, 1])


def test_merge_all():
    out = merge_all([VectorTimestamp([1, 0]), VectorTimestamp([0, 2])])
    assert list(out) == [1, 2]
    with pytest.raises(ValueError):
        merge_all([])


def test_version_ordering_stable():
    vs = sorted([Version(1, 2), Version(0, 9), Version(1, 1)])
    assert vs == [Version(0, 9), Version(1, 1), Version(1, 2)]


def test_version_str():
    assert str(Version(2, 7)) == "<2:7>"
    assert repr(Version(2, 7)) == "Version(site=2, seqno=7)"


def test_version_is_slim_immutable_and_pickles():
    v = Version(1, 2)
    assert not hasattr(v, "__dict__")
    with pytest.raises(AttributeError):
        v.seqno = 3
    copy = pickle.loads(pickle.dumps(v))
    assert copy == v and copy is not v
    assert hash(copy) == hash(v) == hash((1, 2))
    assert {v: "x"}[Version(1, 2)] == "x"
    assert Version(1, 2) != (1, 2)


def test_version_orders_site_major():
    assert Version(0, 9) < Version(1, 1) <= Version(1, 1) < Version(1, 2)
    assert Version(1, 2) > Version(1, 1) >= Version(1, 1) > Version(0, 9)
    assert max([Version(0, 9), Version(1, 2), Version(1, 1)]) == Version(1, 2)
    with pytest.raises(TypeError):
        Version(0, 1) < (0, 2)


vts_strategy = st.lists(st.integers(0, 50), min_size=1, max_size=5).map(VectorTimestamp)


@given(st.lists(st.integers(0, 50), min_size=2, max_size=5))
def test_merge_commutative(seqnos):
    half = len(seqnos) // 2
    a = VectorTimestamp(seqnos[:half] + [0] * (len(seqnos) - half))
    b = VectorTimestamp([0] * half + seqnos[half:])
    assert a.merge(b) == b.merge(a)


@given(st.lists(st.integers(0, 50), min_size=1, max_size=5))
def test_merge_idempotent_and_dominating(seqnos):
    vts = VectorTimestamp(seqnos)
    assert vts.merge(vts) == vts
    other = VectorTimestamp([s + 1 for s in seqnos])
    merged = vts.merge(other)
    assert merged.dominates(vts)
    assert merged.dominates(other)


@given(st.integers(0, 4), st.integers(0, 50), st.lists(st.integers(0, 50), min_size=5, max_size=5))
def test_dominating_snapshot_sees_more(site, seqno, seqnos):
    version = Version(site, seqno)
    vts = VectorTimestamp(seqnos)
    bigger = vts.advance(site)
    if vts.visible(version):
        assert bigger.visible(version)
