"""Propagation wire format: delta-encoded commit-record batches.

A propagation batch ships runs of consecutive commit records from one
origin to one destination.  Unbatched, every record carries its full
``startVTS`` (8 bytes per site) plus a per-record header; across a batch
that metadata dominates the wire for small transactions.  The batched
encoding amortizes it:

* the **first** record of a batch carries its snapshot vector absolutely;
* every **subsequent** record carries only the sparse delta against its
  predecessor's vector -- consecutive commits at one site share almost
  their entire snapshot, so the delta is typically one or two entries;
* **header-only** entries (records fully trimmed for a non-replica
  destination under partial replication) carry no update payload at all,
  just the ``tid``/``seqno``/delta header the destination needs to keep
  its vector clocks and got-guard stream contiguous.

Delta encoding is safe under partial replication because trimming drops
*updates*, never snapshot metadata: a trimmed record keeps its full
``startVTS``, so the reconstruction below is exact regardless of which
updates a destination receives.  Decoding rebuilds real
:class:`~repro.core.transaction.CommitRecord` objects, so everything
downstream of delivery (got-guard, apply, WAL) is unchanged.

Update payloads are costed by :func:`_updates_bytes`; headers and
vector entries use the same rough per-field costs the rest of the
network model uses.  Only the simulated
``size_bytes`` is derived from it -- the entries themselves carry the
update objects by reference, like every other simulated message.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.transaction import CommitRecord
from ..core.updates import DataUpdate
from ..core.versions import VectorTimestamp

#: Fixed batch framing (method id, origin site, record count, checksum).
BATCH_HEADER_BYTES = 64
#: Per-record header: tid hash, seqno, commit timestamp, flags.
RECORD_HEADER_BYTES = 24
#: One transmitted vector entry (site index + seqno).
VTS_ENTRY_BYTES = 8
#: Footprint digest on trimmed records (``touched`` container ids).
TOUCHED_BYTES = 8
#: One frontier entry: origin seqno, tid hash and acknowledging site.
ACK_ENTRY_BYTES = 24
#: An ACK, DS-DURABLE or VISIBLE cast: one per-origin frontier, however
#: many records it covers.
FRONTIER_BYTES = BATCH_HEADER_BYTES + ACK_ENTRY_BYTES


def _updates_bytes(updates) -> int:
    """Wire cost of an update list: a data update's payload plus a
    32-byte header (96 bytes for non-string data), 48 bytes a cset
    update."""
    per = 0
    for u in updates:
        if isinstance(u, DataUpdate):
            data = u.data
            if isinstance(data, (bytes, str)):
                per += 32 + len(data)
            else:
                per += 96
        else:
            per += 48
    return per


def encode_propagation_batch(records: List[CommitRecord]) -> Tuple[list, int]:
    """Encode ``records`` (one origin, seqno order) into wire entries.

    Returns ``(entries, size_bytes)``.  Each entry is a tuple
    ``(tid, site, seqno, vts_field, updates, committed_at, touched)``
    where ``vts_field`` is the absolute ``_seqnos`` tuple for the first
    record and a sparse ``((index, value), ...)`` delta against the
    previous record's vector for the rest.
    """
    entries = []
    size = BATCH_HEADER_BYTES
    prev = None
    for record in records:
        seqnos = record.start_vts._seqnos
        if prev is None:
            vts_field = seqnos
            size += VTS_ENTRY_BYTES * len(seqnos)
        else:
            vts_field = tuple(
                (i, s) for i, (s, p) in enumerate(zip(seqnos, prev)) if s != p
            )
            size += VTS_ENTRY_BYTES * len(vts_field)
        prev = seqnos
        size += RECORD_HEADER_BYTES
        if record.updates:
            size += _updates_bytes(record.updates)
        if record.touched is not None:
            # Shared-header trimming: the footprint digest rides along so
            # recovery at a non-replica site still knows what the
            # transaction wrote (see CommitRecord.touched).
            size += TOUCHED_BYTES
        entries.append(
            (
                record.tid,
                record.site,
                record.seqno,
                vts_field,
                record.updates,
                record.committed_at,
                record.touched,
            )
        )
    return entries, size


def decode_propagation_batch(entries: list) -> List[CommitRecord]:
    """Rebuild the commit records of one encoded batch, in order.

    The records take each entry's update list as it is, not a copy:
    records are never mutated after commit.  A record whose snapshot
    delta is empty shares its predecessor's vector object."""
    records: List[CommitRecord] = []
    vts = None
    for tid, site, seqno, vts_field, updates, committed_at, touched in entries:
        if vts is None:
            # The first entry is always the absolute vector.
            vts = VectorTimestamp._wrap(tuple(vts_field))
        elif vts_field:
            rebuilt = list(vts._seqnos)
            for index, value in vts_field:
                rebuilt[index] = value
            vts = VectorTimestamp._wrap(tuple(rebuilt))
        records.append(
            CommitRecord(tid, site, seqno, vts, updates, committed_at, touched)
        )
    return records
