"""The replication apply path's per-object budget, pinned the way
``tests/net/test_delivery.py`` pins the RPC event budget.

``ObjectId.__hash__`` is a Python-level call, and every keyed structure
the receive path touches pays it once per probe.  An applied update needs
one history lookup, one LRU refresh (one probe: a move to the end) and
one access counter -- three probes.
"""

from unittest import mock

import pytest

from repro.core.objects import ObjectId
from repro.core.transaction import CommitRecord
from repro.core.updates import DataUpdate
from repro.core.versions import VectorTimestamp
from repro.storage import FLUSH_MEMORY

from .test_chunk_equivalence import FULL, RECEIVER, SHARDED, batch_of, build, until_applied

HASHES_PER_APPLIED_UPDATE = 3


@pytest.mark.parametrize("deploy", [FULL, SHARDED], ids=["full", "sharded-partial"])
def test_single_update_record_hash_budget(deploy):
    world, receiver, _casts = build(FLUSH_MEMORY, **deploy)
    origin = 0
    # One object per container: under partial replication the receiver
    # stores some of them, and the rest reach it trimmed to the header.
    oids = [world.config.container("c%d" % s).new_id() for s in range(world.n_sites)]
    world.network.register("origin", origin)

    def stream(first, count):
        return [
            world.server(origin)._record_for(
                CommitRecord(
                    tid="t%d" % seqno, site=origin, seqno=seqno,
                    start_vts=VectorTimestamp([0] * world.n_sites),
                    updates=[DataUpdate(oids[seqno % len(oids)], b"v%d" % seqno)],
                    committed_at=0.0,
                ),
                RECEIVER,
            )
            for seqno in range(first, first + count)
        ]

    hashes = []
    real_hash = ObjectId.__hash__
    real_apply_chunk = receiver._apply_chunk

    def counted_hash(oid):
        hashes.append(oid)
        return real_hash(oid)

    def counted_apply_chunk(chunk):
        with mock.patch.object(ObjectId, "__hash__", counted_hash):
            return real_apply_chunk(chunk)

    receiver._apply_chunk = counted_apply_chunk

    def deliver(records):
        del hashes[:]
        world.run_process(
            until_applied(receiver.on_propagate_batch("origin", batch_of(records))), within=60.0
        )
        return sum(len(record.updates) for record in records)

    # First touch: each structure also stores the new key (a second probe).
    first = stream(1, len(oids))
    applied = deliver(first)
    assert 0 < applied and (applied < len(first)) == ("shards" in deploy)
    assert len(hashes) <= (HASHES_PER_APPLIED_UPDATE + 3) * applied
    # Steady state: every object has a history, an LRU slot and counters.
    applied = deliver(stream(len(oids) + 1, 40))
    assert receiver.stats.remote_applied == len(oids) + 40
    assert 0 < len(hashes) <= HASHES_PER_APPLIED_UPDATE * applied
