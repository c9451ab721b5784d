"""Per-transaction bookkeeping at its real size: the origin's per-site
propagation frontiers, ``(kind, body)`` WAL entries and their replay,
slotted handles and trackers, and a retained-bytes bound over a small
fan-out."""

import tracemalloc

from repro import Topology
from repro.bench import populate, run_closed_loop, write_tx_factory
from repro.core import DataUpdate, ObjectId, ObjectKind, VectorTimestamp, Version
from repro.core.history import SiteHistories
from repro.core.transaction import CommitRecord
from repro.deployment import Deployment
from repro.storage import FLUSH_MEMORY


def commit_write(world, client, oid, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        yield from client.commit(tx)
        return tx

    return world.run_process(scenario(), within=60.0)


def test_frontiers_through_site_removal_and_reintegration():
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0)
    origin = world.server(0)
    client = world.new_client(0)
    world.network.partition(0, 2)
    tx = commit_write(world, client, client.new_id("c0"), b"v")
    world.settle(0.5)
    assert origin._acked_through == [0, 1, 0] and origin._ds_prefix == 0  # site 2 cut off

    # Removal: without site 2 the ACKs in are all the active set asks.
    world.config.deactivate_site(2)
    origin.recheck_durability()
    assert origin._ds_prefix == 1 and origin._trackers[1].ds_at is not None

    # Re-integration before the VISIBLE frontiers are in: the active set
    # grows back, so the tracker waits for site 2, which the resend
    # sweep re-feeds (the record and the DS frontier).
    world.config.activate_site(2)
    world.network.heal(0, 2)
    world.settle(3.0)
    assert origin._acked_through == origin._visible_through == [0, 1, 1]
    assert not origin._trackers and origin._visible_prefix == 1
    assert world.server(2).committed_vts[0] == 1
    assert tx.ds_at <= tx.visible_at


def test_wal_replay_covers_every_entry_kind():
    world = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    server = world.server(0)
    mine = ObjectId("c0", "x", ObjectKind.REGULAR)
    theirs = ObjectId("c1", "y", ObjectKind.REGULAR)
    joined = ObjectId("c2", "z", ObjectKind.REGULAR)
    zero = VectorTimestamp.zeros(2)

    def record(tid, site, seqno, oid, data):
        return CommitRecord(tid, site, seqno, zero, [DataUpdate(oid, data)], 0.0)

    remote = [record("r%d" % n, 1, n, theirs, b"r%d" % n) for n in (1, 2, 3)]
    donor = SiteHistories()
    donor.apply([DataUpdate(joined, b"backfill")], Version(1, 1))
    log = world.storages[0].log
    for entry in [
        ("local_commit", record("a", 0, 1, mine, b"a")),
        ("remote_apply", remote),
        ("remote_commit", [r.version for r in remote]),
        ("globally_visible", "a"),
        ("local_commit", record("b", 0, 2, mine, b"b")),
        ("container_backfill", donor.export_container("c2")),
        ("recovery_finalize", (1, 2, 1)),  # site 1's seqno 3 did not survive
    ]:
        log.append(entry)

    assert server.restore_from_storage() == 7
    assert server.curr_seqno == 2
    assert list(server.got_vts) == list(server.committed_vts) == [2, 2]
    assert sorted(server._records_by_version) == [
        Version(0, 1), Version(0, 2), Version(1, 1), Version(1, 2)
    ]
    snapshot = VectorTimestamp([2, 3])
    assert server.histories.read_regular(mine, snapshot) == b"b"
    assert server.histories.read_regular(theirs, snapshot) == b"r2"
    assert server.histories.read_regular(joined, snapshot) == b"backfill"
    # "a" is globally visible; "b" is not, so its propagation resumes.
    assert server._visible_prefix == 1
    assert [t.record.tid for t in server._trackers.values()] == ["b"]
    assert server.stats.resumed_propagations == 1
    # The replayed frontiers follow the records, and the finalize
    # clamped them to the surviving bound and left its epoch.
    assert server._ack_frontier[1] == server._visible_frontier[1] == (2, "r2")
    assert server._finalized == {1: (1, 2)}


def test_bookkeeping_objects_carry_no_dict():
    world = Deployment(n_sites=2, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("c0", preferred_site=0)
    client = world.new_client(0)
    tx = commit_write(world, client, client.new_id("c0"), b"v")
    tracker = world.server(0)._trackers[1]
    for obj in (tx, tracker):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    world.settle(2.0)
    entries = world.storages[0].log.entries + world.storages[1].log.entries
    kinds = {entry.payload[0] for entry in entries}
    assert kinds == {"local_commit", "remote_apply", "remote_commit", "globally_visible"}
    assert type(tracker).__slots__ == ("record", "client", "committed_at", "ds_at")
    for entry in entries:
        assert not hasattr(entry, "__dict__")
        assert type(entry.payload) is tuple and len(entry.payload) == 2


#: Traced bytes still held when the fan-out below stops (WAL, record
#: index, trackers, client handles, histories, in-flight messages), per
#: committed transaction, over the bytes of one bare one-update
#: ``CommitRecord`` built by the test: 4.7 with the bookkeeping above,
#: 6.9 with dict WAL entries, a dict record map, set-based trackers and
#: eagerly built milestone events (CPython 3.11).  A ratio, not a byte
#: count, so that object-header and pointer sizes of the interpreter
#: cancel out.
RETAINED_PER_COMMIT_OVER_RECORD = 5.6


def test_retained_bytes_per_commit_on_a_small_fan_out():
    world = Deployment(n_sites=4, topology=Topology.uniform(4, rtt_ms=80.0), seed=5)
    keys = populate(world, n_keys=400)
    oid = ObjectId("c0", "k", ObjectKind.REGULAR)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_closed_loop(
            world, write_tx_factory(keys, 1), clients_per_site=4,
            warmup=0.05, measure=0.4, name="retained", seed=3,
        )
        retained = tracemalloc.get_traced_memory()[0] - base
        commits = sum(server.stats.commits for server in world.servers)
        base = tracemalloc.get_traced_memory()[0]
        bare = [
            CommitRecord("c%d:%d" % (n % 16, n), n % 4, n, VectorTimestamp.zeros(4),
                         [DataUpdate(oid, b"v")], float(n))
            for n in range(commits)
        ]  # fmt: skip
        bare_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert commits > 1500 and len(bare) == commits
    assert retained / bare_bytes < RETAINED_PER_COMMIT_OVER_RECORD
