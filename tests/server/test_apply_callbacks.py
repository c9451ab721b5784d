"""The receiver's applier runs as kernel callbacks, not as a process.

Its three callers -- a ``propagate_batch`` cast, a parked run that
``_drain_pending`` releases and a ``recovery_deliver`` RPC -- create no
:class:`~repro.sim.Process`; a batch costs the kernel the events a
process per batch cost; and a crash ends the chain at its next callback.
"""

from repro.net.rpc import Cast, Host

from .test_chunk_equivalence import FULL, RECEIVER, batch_of, build, make_records

#: Kernel events from the delivery of a 20-record batch (two chunks)
#: until the world has run 0.5 s on: what a process per batch cost.
TWO_CHUNK_BATCH_EVENTS = 18


def send_batch(world, receiver, records):
    world.network.send(
        "origin-a", receiver.address,
        Cast("propagate_batch", {"batch": batch_of(records)}, src="origin-a"),
    )


def settle(world):
    world.kernel.run(until=world.kernel.now + 0.5)


def test_batch_released_run_and_recovery_delivery_create_no_process(processes_made):
    world, receiver, _casts = build(0.002, **FULL)
    stream, _other = make_records(world)
    world.network.register("origin-a", 0)
    asker = Host(world.kernel, world.network, 0, "asker")
    asker.start()
    # A batch beyond a gap parks; the gap's batch releases it.
    send_batch(world, receiver, stream[10:20])
    settle(world)
    assert len(receiver._pending_remote) == 10
    send_batch(world, receiver, stream[:10])
    settle(world)
    assert receiver.got_vts[0] == 20 and not len(receiver._pending_remote)
    # A recovery delivery, through the RPC layer.
    reply = asker.send_request(receiver.address, "recovery_deliver", records=stream[20:], epoch=0)
    world.kernel.run(until=world.kernel.now + 1.0, stop_when=lambda: reply.triggered)
    assert processes_made == []
    assert reply.triggered and receiver.got_vts[0] == len(stream)


def test_two_chunk_batch_costs_the_events_a_process_did():
    world, receiver, _casts = build(0.002, **FULL)
    stream, _other = make_records(world)
    world.network.register("origin-a", 0)
    before = world.kernel.events_executed
    send_batch(world, receiver, stream[:20])
    settle(world)
    assert receiver.stats.remote_applied == 20
    assert receiver.storage.log.stats.records == 20
    assert world.kernel.events_executed - before == TWO_CHUNK_BATCH_EVENTS


def test_crash_between_lock_grant_and_apply_timer_applies_nothing():
    world, receiver, casts = build(0.002, **FULL)
    stream, _other = make_records(world)
    world.network.register("origin-a", 0)
    start = world.kernel.now
    receiver.on_propagate_batch("origin-a", batch_of(stream[:20]))
    # The grant runs now and arms the timer of a 16-record chunk.
    world.kernel.run(until=start + receiver.costs.apply_remote)
    assert receiver.commit_lock._held and receiver.stats.remote_applied == 0
    world.crash_server(RECEIVER)
    settle(world)
    log = world.storages[RECEIVER].log
    assert "remote_apply" not in [kind for kind, _body in log.payloads()]
    assert receiver.stats.remote_applied == 0
    assert [cast for cast in casts if cast[1] == "propagate_ack"] == []
