"""PendingIndex / _drain_pending performance contract.

The legacy ``_drain_pending`` rescanned every parked record from the
start after each action: a burst of n held-back records cost O(n^2)
guard evaluations.  The :class:`repro.server.propagation.PendingIndex`
version must touch only the records each clock advance unblocks.  These
tests pin that contract with ``_drain_scan_steps`` (a counter of
examined entries) and check that out-of-order propagation batches still
apply strictly in seqno order.
"""

from repro.core.transaction import CommitRecord
from repro.core.versions import VectorTimestamp, Version
from repro.deployment import Deployment
from repro.net.wire import encode_propagation_batch
from repro.server.propagation import PropagationBatch
from repro.storage import FLUSH_MEMORY


def make_world(n_sites=2):
    world = Deployment(n_sites=n_sites, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    for site in range(n_sites):
        world.create_container("c%d" % site, preferred_site=site)
    return world


def remote_record(tid, seqno, n_sites=2, site=0):
    """A site-``site`` commit record with no causal dependencies."""
    return CommitRecord(
        tid=tid,
        site=site,
        seqno=seqno,
        start_vts=VectorTimestamp.zeros(n_sites),
        updates=[],
        committed_at=0.0,
    )


N_PARKED = 10_000


def test_drain_scan_is_o_unblocked_not_o_parked():
    """10k records parked behind one missing seqno: a clock advance must
    examine a handful of entries, not rescan the whole backlog."""
    world = make_world(2)
    receiver = world.server(1)

    # Park seqnos 2..N+1 from site 0; seqno 1 never arrived, so every
    # record fails the GotVTS guard.
    for seqno in range(2, N_PARKED + 2):
        receiver._park_remote(remote_record("t%d" % seqno, seqno), None)
    assert len(receiver._pending_remote) == N_PARKED

    # Nothing is unblocked: the drain must not walk the backlog.
    receiver._drain_scan_steps = 0
    receiver._drain_pending()
    assert receiver._drain_scan_steps <= 4
    assert len(receiver._pending_remote) == N_PARKED

    # Deliver the missing seqno 1 by hand: exactly one head unblocks.
    receiver.got_vts = receiver.got_vts.with_entry(0, 1)
    receiver._drain_scan_steps = 0
    receiver._drain_pending()
    assert receiver._drain_scan_steps <= 4
    # The head (seqno 2) was popped and handed to an apply process.
    assert receiver._pending_remote.get(0, 2) is None

    # Let the chain drain: each apply advances GotVTS by one and wakes
    # only the next head, so the full drain is O(n) scan steps total
    # (the legacy restart-scan would have done ~n^2/2 ~ 50M).
    world.settle(30.0)
    assert receiver.got_vts[0] == N_PARKED + 1
    assert len(receiver._pending_remote) == 0
    assert receiver._drain_scan_steps <= 5 * N_PARKED


def test_duplicate_park_is_noop():
    world = make_world(2)
    receiver = world.server(1)
    record = remote_record("dup", 2)
    receiver._park_remote(record, None)
    receiver._park_remote(record, None)  # retransmitted batch
    assert len(receiver._pending_remote) == 1


def test_out_of_order_batch_applies_in_seqno_order():
    """A PROPAGATE batch delivered in reverse seqno order must park the
    early arrivals and apply everything in seqno order once the first
    record lands."""
    world = make_world(2)
    receiver = world.server(1)
    world.network.register("test-origin", 0)

    records = [remote_record("t%d" % s, s) for s in (5, 4, 3, 2, 1)]

    def deliver():
        entries, _size = encode_propagation_batch(records)
        yield from receiver.on_propagate_batch(
            "test-origin", PropagationBatch(entries)
        )

    world.run_process(deliver())
    world.settle(2.0)

    assert receiver.got_vts[0] == 5
    assert len(receiver._pending_remote) == 0
    applied = [v for v in receiver._records_by_version if v.site == 0]
    assert applied == [Version(0, s) for s in (1, 2, 3, 4, 5)]
