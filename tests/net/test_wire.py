"""Wire size of commit records (:mod:`repro.net.wire`)."""

from repro.core import CSetAdd, DataUpdate, ObjectId, ObjectKind, VectorTimestamp, Version
from repro.core.transaction import CommitRecord
from repro.net.wire import _updates_bytes, encode_propagation_batch

REG = ObjectId("c", "r", ObjectKind.REGULAR)
SET = ObjectId("c", "s", ObjectKind.CSET)


def test_commit_record_version_and_size():
    record = CommitRecord(
        tid="t1",
        site=2,
        seqno=7,
        start_vts=VectorTimestamp([0, 0, 0]),
        updates=[DataUpdate(REG, b"x" * 100), CSetAdd(SET, "e")],
    )
    assert record.version == Version(2, 7)
    size = _updates_bytes(record.updates)
    assert size >= 100  # at least the data payload
    assert size < 1000
    _entries, batch_size = encode_propagation_batch([record])
    assert size < batch_size < 1000


def test_commit_record_size_grows_with_data():
    small = CommitRecord("t", 0, 1, VectorTimestamp([0]), [DataUpdate(REG, b"x")])
    large = CommitRecord("t", 0, 1, VectorTimestamp([0]), [DataUpdate(REG, b"x" * 1000)])
    assert _updates_bytes(large.updates) > _updates_bytes(small.updates)
    assert encode_propagation_batch([large])[1] > encode_propagation_batch([small])[1]
