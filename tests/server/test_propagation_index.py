"""PendingIndex / _drain_pending performance contract.

A rescanning ``_drain_pending`` costs O(n) guard evaluations per clock
advance, O(n^2) for a burst of n held-back records.  With the
:class:`repro.server.propagation.PendingIndex` a drain touches only what
the advance unblocks, releases it as one run, and never pops a record it
cannot apply.  These tests pin that contract with ``_drain_scan_steps``
(a counter of examined entries) and commit-lock turns, and check that
out-of-order propagation batches still apply strictly in seqno order.
"""

from unittest import mock

from repro.core.transaction import CommitRecord
from repro.core.versions import VectorTimestamp, Version
from repro.deployment import Deployment
from repro.net.wire import encode_propagation_batch
from repro.server.propagation import PropagationBatch
from repro.storage import FLUSH_MEMORY

from .test_chunk_equivalence import until_applied


def make_world(n_sites=2):
    world = Deployment(n_sites=n_sites, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    for site in range(n_sites):
        world.create_container("c%d" % site, preferred_site=site)
    return world


def remote_record(tid, seqno, n_sites=2, site=0, start_vts=None):
    """A site-``site`` commit record; no causal dependencies unless
    ``start_vts`` names some."""
    return CommitRecord(
        tid=tid,
        site=site,
        seqno=seqno,
        start_vts=start_vts or VectorTimestamp.zeros(n_sites),
        updates=[],
        committed_at=0.0,
    )


N_PARKED = 10_000


def applied_seqnos(server, site):
    """Seqnos of ``site`` in the order ``server`` applied them."""
    return [v.seqno for v in server._records_by_version if v.site == site]


def test_drain_scan_is_o_unblocked_not_o_parked():
    """10k records parked behind one missing seqno: a drain that unblocks
    nothing examines a handful of entries, and once the gap fills the
    whole run applies in seqno order, ``APPLY_CHUNK`` records per
    commit-lock turn."""
    world = make_world(2)
    receiver = world.server(1)

    # Park seqnos 2..N+1 from site 0; seqno 1 never arrived, so every
    # record fails the GotVTS guard.
    for seqno in range(2, N_PARKED + 2):
        receiver._park_remote(remote_record("t%d" % seqno, seqno))
    assert len(receiver._pending_remote) == N_PARKED

    # Nothing is unblocked: the drain must not walk the backlog.
    receiver._drain_scan_steps = 0
    receiver._drain_pending()
    assert receiver._drain_scan_steps <= 4
    assert len(receiver._pending_remote) == N_PARKED

    # Deliver the missing seqno 1 by hand: the whole run is released to
    # one applier, each entry examined once.
    receiver.got_vts = receiver.got_vts.with_entry(0, 1)
    receiver._drain_scan_steps = 0
    lock = receiver.commit_lock
    with mock.patch.object(lock, "acquire", wraps=lock.acquire) as acquire:
        receiver._drain_pending()
        assert len(receiver._pending_remote) == 0
        assert receiver._drain_scan_steps <= N_PARKED + 4
        world.settle(1.0)
    assert receiver.got_vts[0] == N_PARKED + 1
    assert applied_seqnos(receiver, 0) == list(range(2, N_PARKED + 2))
    assert receiver.stats.remote_applied == N_PARKED
    assert acquire.call_count == -(-N_PARKED // receiver.APPLY_CHUNK)
    # The drains after each chunk find nothing parked and examine nothing.
    assert receiver._drain_scan_steps <= 2 * N_PARKED


def test_drain_never_pops_what_it_cannot_apply():
    """Adversarial interleaving: origin 0's record k causally depends on
    origin 2's record k, all of origin 0 is parked, and origin 2 arrives
    one record at a time.  Each arrival must release exactly the one
    record it unblocks -- a drain that popped the contiguous seqno run
    and re-parked its tail would cost O(n^2) over the sequence."""
    n = 2_000
    world = make_world(3)
    receiver = world.server(1)
    world.network.register("test-origin", 2)

    for k in range(1, n + 1):
        receiver._park_remote(
            remote_record("a%d" % k, k, start_vts=VectorTimestamp([0, 0, k]))
        )
    receiver._drain_scan_steps = 0

    def deliver():
        for k in range(1, n + 1):
            entries, _size = encode_propagation_batch(
                [remote_record("b%d" % k, k, n_sites=3, site=2)]
            )
            yield from until_applied(receiver.on_propagate_batch(
                "test-origin", PropagationBatch(entries)
            ))
            # Exactly a_k left the index; nothing beyond it was touched.
            assert len(receiver._pending_remote) == n - k

    with mock.patch.object(
        receiver, "_park_remote", wraps=receiver._park_remote
    ) as park:
        world.run_process(deliver(), within=120.0)
        world.settle(1.0)
    park.assert_not_called()  # nothing was popped and parked again
    assert receiver.got_vts[0] == n and receiver.got_vts[2] == n
    assert applied_seqnos(receiver, 0) == list(range(1, n + 1))
    assert receiver._drain_scan_steps <= 6 * n


def test_duplicate_park_is_noop():
    world = make_world(2)
    receiver = world.server(1)
    record = remote_record("dup", 2)
    receiver._park_remote(record)
    receiver._park_remote(record)  # retransmitted batch
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
        yield from until_applied(receiver.on_propagate_batch(
            "test-origin", PropagationBatch(entries)
        ))

    world.run_process(deliver())
    world.settle(2.0)

    assert receiver.got_vts[0] == 5
    assert len(receiver._pending_remote) == 0
    applied = [v for v in receiver._records_by_version if v.site == 0]
    assert applied == [Version(0, s) for s in (1, 2, 3, 4, 5)]
