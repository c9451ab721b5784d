"""Cumulative propagation acknowledgements: ACK, DS-DURABLE and VISIBLE
each carry one per-origin frontier ``(seqno, tid)``.

An ACK frontier moves only once the apply it covers is durable; a
frontier naming a record other than the one held at its seqno is
ignored, and recovery clamps the failed site's frontiers, because
re-integration reuses abandoned seqnos for no-op records; retransmission
goes only to the sites whose frontier lags; a checkpoint carries the
frontiers; and a recovery delivery
fetched before a site applied a finalize brings back nothing that
finalize abandoned."""

from unittest import mock

from repro.deployment import Deployment
from repro.server import WalterServer
from repro.storage import FLUSH_MEMORY

from .test_chunk_equivalence import until_applied


def commit_write(world, client, oid, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        yield from client.commit(tx)
        return tx

    return world.run_process(scenario(), within=60.0)


def record_casts(server, methods):
    """Patch ``server.cast`` to log ``(now, dst, method, args)`` of the
    casts named in ``methods``; returns the log."""
    log = []
    real_cast = server.cast

    def cast(dst, method, **args):
        if method in methods:
            log.append((server.kernel.now, dst, method, args))
        return real_cast(dst, method, **args)

    server.cast = cast
    return log


def test_ack_frontier_waits_for_the_apply_to_land():
    """A duplicate PROPAGATE arriving while the original apply's WAL
    flush is pending must not be ACKed: the ACK would tell the origin
    the record is durable here before it is."""
    world = Deployment(n_sites=2, flush_latency=0.05, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0)
    receiver = world.server(1)
    real_handler = receiver.on_propagate_batch
    arrivals = []

    def on_propagate_batch(src, batch):
        if not arrivals:
            arrivals.append(world.kernel.now)
            world.kernel.call_after(0.001, real_handler, src, batch)
        return real_handler(src, batch)

    receiver.on_propagate_batch = on_propagate_batch
    acks = record_casts(receiver, ("propagate_ack",))
    client = world.new_client(0)
    commit_write(world, client, client.new_id("c0"), b"v")
    world.settle(1.0)
    (landed,) = [
        entry.durable_at for entry in receiver.storage.log.entries
        if entry.payload[0] == "remote_apply"
    ]
    assert arrivals[0] + 0.001 < landed  # the duplicate came mid-flush
    covering = [at for at, _dst, _method, args in acks if args["seqno"] >= 1]
    assert covering and min(covering) >= landed


def test_stale_frontiers_do_not_cover_reused_seqnos():
    """Site 2 commits seqnos 2 and 3 while cut off, fails and is
    removed (only seqno 1 survives), then re-integrates: the finalize
    truncates its suffix and seals seqnos 2 and 3 with no-ops.  ACK and
    VISIBLE frontiers naming the abandoned seqno 3 -- one delivered just
    before the finalize, which the clamp undoes, one just after, which
    the tid check rejects -- mark no no-op acked, DS-durable or
    visible."""
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("c2", preferred_site=2)
    client = world.new_client(2)
    commit_write(world, client, client.new_id("c2"), b"a")
    world.settle(1.0)
    for other in (0, 1):
        world.network.partition(2, other)
    for data in (b"b", b"c"):
        commit_write(world, client, client.new_id("c2"), data)
    stale_tid = world.server(2).rpc_recovery_fetch(2, 2, 3)[1][0].tid
    world.fail_site(2)
    assert world.remove_site(2, reassign_to=0) == 1

    seen = []
    real_finalize = WalterServer.rpc_recovery_finalize

    def finalize(server, failed_site, survive_upto, epoch):
        if server.site_id != 2:
            return real_finalize(server, failed_site, survive_upto, epoch)
        for site in (0, 1):  # before: names the record held at 3
            server.on_propagate_ack("stale", site, 3, stale_tid)
        assert server._acked_through == [3, 3, 0]
        result = real_finalize(server, failed_site, survive_upto, epoch)
        sealed = list(server._trackers.values())
        assert [t.record.tid for t in sealed] == ["noop-2-2", "noop-2-3"]
        for site in (0, 1):  # after: names what seqno 3 no longer holds
            server.on_propagate_ack("stale", site, 3, stale_tid)
            server.on_visible_ack("stale", site, 3, stale_tid)
        seen.append((
            list(server._acked_through), list(server._visible_through), server._ds_prefix,
        ))
        return result

    with mock.patch.object(WalterServer, "rpc_recovery_finalize", finalize):
        world.reintegrate_site(2)
    assert seen == [([1, 1, 0], [0, 0, 0], 1)]  # neither no-op DS-durable
    # The no-ops then propagate on their own frontiers.
    world.settle(3.0)
    returning = world.server(2)
    assert not returning._trackers and returning._visible_prefix == 3
    assert [world.server(s).committed_vts[2] for s in (0, 1)] == [3, 3]


def test_recovery_delivery_fetched_before_a_finalize_stays_within_its_bound():
    """A finalize round reaches the survivors one by one, so a catch-up
    may fetch from one it has not reached yet and deliver to one it
    has.  Site 1 holds site 2's seqnos 1 and 2, site 0 neither; site 0
    then finalizes site 2 at bound 1.  A delivery of both records
    fetched at epoch 0 applies only seqno 1; one whose sources had
    applied the finalize (epoch 1) applies both."""
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("c2", preferred_site=2)
    client = world.new_client(2)
    world.network.partition(2, 0)
    for data in (b"a", b"b"):
        commit_write(world, client, client.new_id("c2"), data)
    world.settle(0.5)
    epoch, records = world.server(1).rpc_recovery_fetch(2, 0, 2)
    assert epoch == 0 and [r.seqno for r in records] == [1, 2]
    receiver = world.server(0)
    assert receiver.got_vts[2] == 0
    receiver.rpc_recovery_finalize(2, 1, epoch=1)
    world.run_process(until_applied(receiver.rpc_recovery_deliver(records, epoch)), within=5.0)
    assert receiver.got_vts[2] == 1
    receiver.rpc_recovery_finalize(2, 0, epoch=1)  # a late retry truncates nothing
    assert receiver.got_vts[2] == 1
    world.run_process(until_applied(receiver.rpc_recovery_deliver(records, 1)), within=5.0)
    assert receiver.got_vts[2] == 2


def test_retransmission_goes_only_to_the_cut_off_site():
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0)
    origin = world.server(0)
    client = world.new_client(0)
    world.network.partition(0, 2)
    commit_write(world, client, client.new_id("c0"), b"v")
    world.settle(0.5)
    assert origin._acked_through == [0, 1, 0]
    sends = record_casts(origin, ("propagate_batch",))
    world.network.heal(0, 2)
    world.settle(3.0)
    assert sends and {dst for _at, dst, _method, _args in sends} == {world.addresses[2]}
    assert not origin._trackers and world.server(2).committed_vts[0] == 1


def test_checkpoint_round_trip_carries_the_frontiers():
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    for site in range(3):
        world.create_container("c%d" % site, preferred_site=site)
    world.server(1).enable_checkpointing(interval=1000.0)
    clients = [world.new_client(site) for site in range(3)]

    def frontiers(server, suffix):
        # DS announcements are not logged: a replayed suffix cannot move
        # the DS frontier past the checkpoint's.
        return (
            server._ack_frontier, server._visible_frontier,
            None if suffix else server._ds_through,
            server._visible_prefix, tuple(server.committed_vts),
        )

    def write_everywhere(round_):
        for site, client in enumerate(clients):
            commit_write(world, client, client.new_id("c%d" % site), b"%d" % round_)
        world.settle(2.0)

    for round_, suffix in enumerate((False, True)):
        write_everywhere(round_)
        checkpoint = world.server(1).take_checkpoint()
        assert world.storages[1].checkpoint is checkpoint
        assert "frontiers" in checkpoint.state
        if suffix:  # then replay a logged suffix on top of it
            write_everywhere(round_ + 10)
        before = frontiers(world.server(1), suffix)
        assert before[0][0][0] == before[1][2][0] == round_ + 1 + suffix
        world.crash_server(1)
        world.replace_server(1)
        assert frontiers(world.server(1), suffix) == before
