"""Tests for the Transaction and CommitRecord data types."""

import pickle

import pytest

from repro.core import (
    CommitRecord,
    ObjectId,
    ObjectKind,
    Transaction,
    TxStatus,
    VectorTimestamp,
    Version,
    fresh_tid,
)
from repro.errors import TransactionStateError

REG = ObjectId("c", "r", ObjectKind.REGULAR)
REG2 = ObjectId("c", "r2", ObjectKind.REGULAR)
SET = ObjectId("c", "s", ObjectKind.CSET)


def make_tx():
    return Transaction(tid=fresh_tid(), site=0, start_vts=VectorTimestamp([0, 0]))


def test_fresh_tids_are_unique():
    assert fresh_tid() != fresh_tid()


def test_buffering_and_derived_sets():
    tx = make_tx()
    tx.buffer_write(REG, b"a")
    tx.buffer_set_add(SET, "x")
    tx.buffer_set_del(SET, "y")
    tx.buffer_write(REG2, b"b")
    assert tx.write_set == {REG, REG2}
    assert tx.cset_set == {SET}
    assert tx.touched == {REG, REG2, SET}
    assert not tx.is_read_only


def test_read_only_flag():
    assert make_tx().is_read_only


def test_commit_lifecycle():
    tx = make_tx()
    tx.mark_committed(Version(0, 5), at=1.25)
    assert tx.status is TxStatus.COMMITTED
    assert tx.version == Version(0, 5)
    assert tx.commit_time == 1.25


def test_abort_lifecycle():
    tx = make_tx()
    tx.mark_aborted()
    assert tx.status is TxStatus.ABORTED


def test_operations_after_commit_rejected():
    tx = make_tx()
    tx.mark_committed(Version(0, 1), at=0.0)
    with pytest.raises(TransactionStateError):
        tx.buffer_write(REG, b"late")
    with pytest.raises(TransactionStateError):
        tx.mark_aborted()


def test_operations_after_abort_rejected():
    tx = make_tx()
    tx.mark_aborted()
    with pytest.raises(TransactionStateError):
        tx.buffer_set_add(SET, "x")
    with pytest.raises(TransactionStateError):
        tx.mark_committed(Version(0, 1), at=0.0)


def test_commit_record_is_slim_and_pickles():
    from repro.core import DataUpdate

    record = CommitRecord(
        "t", 1, 4, VectorTimestamp([2, 3]), [DataUpdate(REG, b"x")], 0.5, touched=("c",)
    )
    assert not hasattr(record, "__dict__")
    assert record.version == Version(1, 4)  # fills the cached version slot
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and copy is not record
    assert copy.version == record.version and copy.touched == ("c",)
    assert copy != CommitRecord("t", 1, 4, VectorTimestamp([2, 3]), [], 0.5, touched=("c",))
