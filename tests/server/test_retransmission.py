"""Propagation retransmission: replication self-heals after transient
partitions and message loss, without a server restart."""

from unittest import mock

import pytest

from repro.core.objects import ObjectKind
from repro.deployment import Deployment
from repro.net.wire import encode_propagation_batch
from repro.server.propagation import PropagationBatch
from repro.storage import FLUSH_MEMORY

from .test_chunk_equivalence import until_applied


def make_world():
    d = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    d.create_container("c0", preferred_site=0)
    return d


def commit_write(world, client, oid, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        return (yield from client.commit(tx))

    return world.run_process(scenario(), within=120.0)


def read_value(world, client, oid):
    def scenario():
        tx = client.start_tx()
        value = yield from client.read(tx, oid)
        yield from client.commit(tx)
        return value

    return world.run_process(scenario(), within=120.0)


def test_propagation_recovers_after_partition_heals():
    world = make_world()
    client0 = world.new_client(0)
    client1 = world.new_client(1)
    oid = client0.new_id("c0")

    # Commit while partitioned: the PROPAGATE batch is dropped.
    world.network.partition(0, 1)
    assert commit_write(world, client0, oid, b"through the storm") == "COMMITTED"
    world.settle(2.0)
    assert read_value(world, client1, oid) is None  # still cut off

    # Heal; the retransmission sweep re-sends the lost batch.
    world.network.heal(0, 1)
    world.settle(5.0)
    assert read_value(world, client1, oid) == b"through the storm"
    assert world.server(0).stats.retransmissions >= 1


def test_transaction_becomes_ds_durable_after_heal():
    world = make_world()
    client0 = world.new_client(0)
    oid = client0.new_id("c0")
    world.network.partition(0, 1)

    def scenario():
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"v")
        yield from client0.commit(tx)
        committed = world.kernel.now
        yield tx.ds_event
        yield tx.visible_event
        return world.kernel.now - committed

    def healer():
        yield world.kernel.timeout(3.0)
        world.network.heal(0, 1)

    world.kernel.spawn(healer())
    elapsed = world.run_process(scenario(), within=120.0)
    assert elapsed > 3.0  # could not complete until the heal


def test_propagation_survives_random_message_loss():
    world = Deployment(
        n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0, seed=7
    )
    world.create_container("c0", preferred_site=0)
    world.network.loss_rate = 0.3  # drop 30% of everything
    client0 = world.new_client(0)
    oids = [client0.new_id("c0") for _ in range(5)]

    def writer():
        statuses = []
        for i, oid in enumerate(oids):
            tx = client0.start_tx()
            try:
                yield from client0.write(tx, oid, b"v%d" % i)
                statuses.append((yield from client0.commit(tx)))
            except Exception:
                statuses.append("LOST-RPC")
        return statuses

    statuses = world.run_process(writer(), within=300.0)
    committed = [i for i, s in enumerate(statuses) if s == "COMMITTED"]
    assert committed  # at least some client RPCs survived the loss
    # Stop losing messages and let retransmission finish the job.
    world.network.loss_rate = 0.0
    world.settle(10.0)
    client1 = world.new_client(1)
    for i in committed:
        assert read_value(world, client1, oids[i]) == b"v%d" % i


@pytest.mark.parametrize("recovery_first", [True, False])
def test_recovery_delivery_racing_retransmission_applies_once(recovery_first):
    """The same records reach a site by ``recovery_deliver`` and by a
    retransmitted ``propagate_batch`` while its commit lock is busy, so
    both copies pass the got guard and queue on the lock together.
    Cset adds are not idempotent: whichever copy gets the lock second
    must find the versions applied and only re-ACK them.  The ACK is a
    frontier, so each copy sends one and the later one covers all."""
    world = make_world()
    client0 = world.new_client(0)
    cset = client0.new_id("c0", ObjectKind.CSET)
    origin, receiver = world.server(0), world.server(1)

    # Site 1 stays cut off: nothing reaches it but what the test injects.
    world.network.partition(0, 1)
    n = 3 * receiver.APPLY_CHUNK + 5  # several lock turns, a ragged tail

    def adds():
        for elem in range(n):
            tx = client0.start_tx()
            yield from client0.set_add(tx, cset, elem)
            assert (yield from client0.commit(tx)) == "COMMITTED"

    world.run_process(adds(), within=120.0)
    _epoch, records = origin.rpc_recovery_fetch(0, 0, n)
    assert [r.seqno for r in records] == list(range(1, n + 1))
    entries, _size = encode_propagation_batch(records)

    copies = [
        lambda: receiver.rpc_recovery_deliver(records, 0),
        lambda: receiver.on_propagate_batch(origin.address, PropagationBatch(entries)),
    ]
    if not recovery_first:
        copies.reverse()

    def race():
        yield receiver.commit_lock.acquire()
        racers = [copy() for copy in copies]
        yield world.kernel.timeout(0.001)
        assert len(receiver.commit_lock._waiters) == 2
        receiver.commit_lock.release()
        for racer in racers:
            yield from until_applied(racer)

    acks = []
    real_cast = receiver.cast

    def cast(dst, method, **args):
        if method == "propagate_ack":
            acks.append((dst, args["seqno"], args["tid"]))
        return real_cast(dst, method, **args)

    with mock.patch.object(receiver, "cast", cast):
        world.run_process(race(), within=120.0)

    assert receiver.got_vts[0] == n
    assert receiver.stats.remote_applied == n
    counts = receiver.histories.read_cset(cset, receiver.got_vts).counts()
    assert counts == {elem: 1 for elem in range(n)}
    # One ACK frontier per copy, to the origin; the last covers all.
    assert len(acks) == 2 and {dst for dst, _seqno, _tid in acks} == {origin.address}
    assert max(ack[1:] for ack in acks) == (n, records[-1].tid)
