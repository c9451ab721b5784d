"""Edge cases of ``RecoveryMixin.restore_from_storage`` (§5.7, §6):
restart with no checkpoint, restart whose checkpoint already covers the
whole log, restart-of-a-restart idempotence, and checkpoints taken while
log entries were still in flight."""

from repro.core import ObjectKind
from repro.deployment import Deployment
from repro.storage import FLUSH_EC2, FLUSH_MEMORY

from .test_chunk_equivalence import FULL, RECEIVER, batch_of, build, make_records, until_applied


def make_world(n_sites=1, **kwargs):
    kwargs.setdefault("flush_latency", FLUSH_MEMORY)
    kwargs.setdefault("jitter_frac", 0.0)
    d = Deployment(n_sites=n_sites, **kwargs)
    for site in range(n_sites):
        d.create_container("c%d" % site, preferred_site=site)
    return d


def commit_write(world, client, oid, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        return (yield from client.commit(tx))

    return world.run_process(scenario())


def read_value(world, client, oid):
    def scenario():
        tx = client.start_tx()
        value = yield from client.read(tx, oid)
        yield from client.commit(tx)
        return value

    return world.run_process(scenario())


def force_checkpoint(world, site):
    """Take one checkpoint now; with nothing in flight it is current."""
    checkpoint = world.server(site).take_checkpoint()
    assert world.storages[site].checkpoint is checkpoint
    return checkpoint


def fig9_state(server):
    return (
        server.curr_seqno,
        list(server.committed_vts),
        list(server.got_vts),
        sorted(server._records_by_version),
    )


class TestRestoreFromStorage:
    def test_empty_checkpoint_with_nonempty_log_suffix(self):
        # Checkpointing enabled but it never fired before the crash: the
        # replacement must rebuild purely from the log.
        world = make_world(1)
        world.server(0).enable_checkpointing(interval=1e6)
        client = world.new_client(0)
        oids = [client.new_id("c0") for _ in range(3)]
        for i, oid in enumerate(oids):
            assert commit_write(world, client, oid, b"v%d" % i) == "COMMITTED"
        world.settle(0.5)
        assert world.storages[0].checkpoint is None
        assert len(world.storages[0].log.entries) > 0

        world.crash_server(0)
        replacement = world.replace_server(0)
        assert replacement.curr_seqno == len(oids)
        assert replacement.committed_vts[0] == len(oids)
        client2 = world.new_client(0)
        for i, oid in enumerate(oids):
            assert read_value(world, client2, oid) == b"v%d" % i

    def test_checkpoint_newer_than_log_tail(self):
        # A checkpoint taken after the last log append covers everything:
        # it truncates the whole log and restore replays zero records, but
        # the checkpointed state alone must be complete.
        world = make_world(1)
        world.server(0).enable_checkpointing(interval=1e6)
        client = world.new_client(0)
        oid = client.new_id("c0")
        assert commit_write(world, client, oid, b"checkpointed") == "COMMITTED"
        world.settle(0.5)
        force_checkpoint(world, 0)
        assert world.storages[0].log.entries == []
        state, suffix = world.storages[0].recover()
        assert state is not None and suffix == []

        world.crash_server(0)
        replacement = world.replace_server(0)
        assert replacement.curr_seqno == 1
        client2 = world.new_client(0)
        assert read_value(world, client2, oid) == b"checkpointed"

    def test_checkpoint_plus_log_suffix_does_not_double_apply(self):
        # Commits before the checkpoint land in both checkpoint state and
        # log; commits after only in the log.  The replay guard must skip
        # the covered prefix -- cset applies are not idempotent, so a
        # double apply would inflate the element count.
        world = make_world(1)
        world.server(0).enable_checkpointing(interval=1e6)
        client = world.new_client(0)
        cset = client.new_id("c0", ObjectKind.CSET)

        def add(element):
            tx = client.start_tx()
            yield from client.set_add(tx, cset, element)
            return (yield from client.commit(tx))

        assert world.run_process(add("early")) == "COMMITTED"
        world.settle(0.5)
        force_checkpoint(world, 0)
        assert world.run_process(add("late")) == "COMMITTED"
        world.settle(0.5)

        world.crash_server(0)
        world.replace_server(0)
        client2 = world.new_client(0)

        def counts():
            tx = client2.start_tx()
            value = yield from client2.set_read(tx, cset)
            yield from client2.commit(tx)
            return value.counts()

        assert world.run_process(counts()) == {"early": 1, "late": 1}

    def test_checkpoint_covering_the_head_of_a_grouped_entry(self):
        # An applied chunk is one WAL entry.  If an entry left in the log
        # covers records the checkpoint already holds, replay must skip
        # exactly those (cset adds are not idempotent) and still apply
        # the entry's tail.
        world, receiver, _casts = build(FLUSH_MEMORY, **FULL)
        receiver.enable_checkpointing(interval=1e6)
        stream, _other = make_records(world)
        world.network.register("origin-a", 0)

        def deliver(records):
            world.run_process(
                until_applied(receiver.on_propagate_batch("origin-a", batch_of(records))), within=60.0
            )

        def state():
            return (
                receiver.histories.dump(),
                tuple(receiver.got_vts),
                dict(receiver._records_by_version),
            )

        deliver(stream[:4])
        assert force_checkpoint(world, RECEIVER).log_position == 1
        deliver(stream[4:10])
        expected = state()
        log = world.storages[RECEIVER].log
        # The install truncated the first chunk's entry.
        assert [len(chunk) for _kind, chunk in log.payloads()] == [6]
        # Regroup what is left into one entry that straddles the
        # checkpoint: records 3-4 are covered, 5-10 are not.
        log.entries[-1].payload = ("remote_apply", stream[2:10])
        assert receiver.restore_from_storage(resume_propagation=False) == 1
        assert receiver.got_vts[0] == 10
        assert state() == expected

    def test_double_restart_is_idempotent(self):
        # Crash/replace twice with no traffic in between: the second
        # restore must land on exactly the same Fig 9 state.
        world = make_world(2)
        world.server(0).enable_checkpointing(interval=1e6)
        client = world.new_client(0)
        oid = client.new_id("c0")
        cset = client.new_id("c0", ObjectKind.CSET)

        def setup():
            tx = client.start_tx()
            yield from client.write(tx, oid, b"stable")
            yield from client.set_add(tx, cset, "once")
            return (yield from client.commit(tx))

        assert world.run_process(setup()) == "COMMITTED"
        world.settle(1.0)
        force_checkpoint(world, 0)

        world.crash_server(0)
        first = world.replace_server(0)
        world.settle(1.0)
        state_after_first = fig9_state(first)

        world.crash_server(0)
        second = world.replace_server(0)
        world.settle(1.0)
        assert fig9_state(second) == state_after_first

        client2 = world.new_client(0)
        assert read_value(world, client2, oid) == b"stable"

        def counts():
            tx = client2.start_tx()
            value = yield from client2.set_read(tx, cset)
            yield from client2.commit(tx)
            return value.counts()

        assert world.run_process(counts()) == {"once": 1}

    def test_checkpoint_carries_gc_state(self):
        # After GC, commit records alone no longer cover object state:
        # regular versions are pruned and cset entries live only in the
        # folded base (the records themselves are kept).  The
        # checkpoint must carry the histories (base + watermark + suffix)
        # so a replacement reads exactly what the old server served.
        world = make_world(1)
        world.server(0).enable_checkpointing(interval=1e6)
        client = world.new_client(0)
        oid = client.new_id("c0")
        cset = client.new_id("c0", ObjectKind.CSET)

        def traffic():
            for i in range(3):
                tx = client.start_tx()
                yield from client.write(tx, oid, b"v%d" % i)
                yield from client.set_add(tx, cset, "e%d" % i)
                yield from client.commit(tx)

        world.run_process(traffic())
        world.settle(1.0)
        server = world.server(0)
        assert server.gc_histories() == 5          # 2 pruned + 3 folded
        assert len(server._records_by_version) == 3
        assert server.histories.get(cset).base_counts == {
            "e0": 1, "e1": 1, "e2": 1,
        }
        force_checkpoint(world, 0)

        world.crash_server(0)
        replacement = world.replace_server(0)
        restored = replacement.histories.get(cset)
        assert restored.base_counts == {"e0": 1, "e1": 1, "e2": 1}
        assert len(restored) == 0
        assert list(restored.gc_vts) == [3]
        client2 = world.new_client(0)
        assert read_value(world, client2, oid) == b"v2"

        def counts():
            tx = client2.start_tx()
            value = yield from client2.set_read(tx, cset)
            yield from client2.commit(tx)
            return value.counts()

        assert world.run_process(counts()) == {"e0": 1, "e1": 1, "e2": 1}
        # And traffic continues past the restored watermark.
        assert commit_write(world, client2, oid, b"after") == "COMMITTED"
        assert read_value(world, client2, oid) == b"after"


def two_ec2_sites():
    world = make_world(2, flush_latency=FLUSH_EC2)
    client = world.new_client(0)
    return world, client, client.new_id("c0")


def start_commit(world, client, oid, data):
    """Spawn a write-and-commit whose server may crash under it; the
    returned dict gets its status and handle."""
    outcome = {}

    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        try:
            outcome["status"] = yield from client.commit(tx)
        except Exception as exc:  # noqa: BLE001 - the crash is the point
            outcome["status"] = type(exc).__name__
        outcome["handle"] = tx

    world.kernel.spawn(scenario())
    return outcome


class TestCheckpointsOverLandedEntries:
    """A checkpoint counts only once every log entry appended before it
    has landed: memory runs ahead of the log."""

    def test_a_checkpoint_over_a_stalled_commit_dies_with_the_fence(self):
        # The commit is applied in memory while its WAL entry is stalled;
        # the checkpoints taken meanwhile cover it, so the takeover's
        # fence must discard them with it, or the replacement restores
        # (and propagates) a commit that never became durable.
        world, client, oid = two_ec2_sites()
        world.preload({oid: b"before"})
        world.server(0).enable_checkpointing(interval=0.1)
        world.storages[0].inject_flush_stall(1.0)
        start_commit(world, client, oid, b"doomed")
        world.run(until=world.kernel.now + 0.25)
        assert world.storages[0].checkpoint is None
        world.crash_server(0)
        world.replace_server(0)
        world.settle(3.0)
        assert [read_value(world, world.new_client(s), oid) for s in (0, 1)] == [
            b"before", b"before",
        ]

    def test_a_restored_apply_is_acked(self):
        # Site 1 applies the record in memory at once, but its entry
        # lands only at 0.3 s, behind the 0.25 s checkpoint that then
        # becomes current.  The ACK it sent is lost to a partition, so
        # the replacement restored from that checkpoint must ACK the
        # record itself, or the origin never hears it is DS-durable.
        world, client, oid = two_ec2_sites()
        world.server(1).enable_checkpointing(interval=0.25)
        world.storages[1].inject_flush_stall(0.3)
        outcome = start_commit(world, client, oid, b"x")
        world.run(until=0.2)
        assert world.server(1).got_vts[0] == 1
        world.network.partition(0, 1)
        world.run(until=0.32)
        assert world.storages[1].checkpoint.taken_at == 0.25
        world.crash_server(1)
        world.replace_server(1)
        world.network.heal(0, 1)
        world.settle(5.0)
        assert outcome["status"] == "COMMITTED"
        assert world.server(0)._acked_through[1] == 1
        assert outcome["handle"].ds_at is not None
