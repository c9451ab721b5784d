"""Multi-site Walter behaviour: asynchronous propagation, PSI semantics,
slow commit, durability milestones, partial replication."""

import pytest

from repro.core import ObjectKind
from repro.deployment import Deployment
from repro.storage import FLUSH_MEMORY

from .test_chunk_equivalence import wal_records


def make_world(n_sites=2, **kwargs):
    kwargs.setdefault("flush_latency", FLUSH_MEMORY)
    kwargs.setdefault("jitter_frac", 0.0)
    d = Deployment(n_sites=n_sites, **kwargs)
    for site in range(n_sites):
        d.create_container("c%d" % site, preferred_site=site)
    return d


def test_commit_is_local_then_propagates():
    world = make_world(2)
    client0 = world.new_client(0)
    client1 = world.new_client(1)
    oid = client0.new_id("c0")

    def writer():
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"v")
        status = yield from client0.commit(tx)
        return (status, world.kernel.now)

    status, commit_time = world.run_process(writer())
    assert status == "COMMITTED"
    # Fast commit involves no cross-site communication: well under an RTT.
    assert commit_time < 0.040

    def remote_reader():
        tx = client1.start_tx()
        value = yield from client1.read(tx, oid)
        yield from client1.commit(tx)
        return value

    # Immediately after commit, site 1 has not committed the tx yet.
    early = world.run_process(remote_reader())
    world.settle(2.0)
    late = world.run_process(remote_reader())
    assert early is None
    assert late == b"v"


def test_ds_durability_latency_within_rtt_band():
    world = make_world(2)
    client0 = world.new_client(0)
    oid = client0.new_id("c0")
    rtt = world.topology.rtt("VA", "CA")

    def writer():
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"v")
        yield from client0.commit(tx)
        committed_at = world.kernel.now
        ds_at = yield tx.ds_event
        visible_at = yield tx.visible_event
        return (committed_at, ds_at, visible_at)

    committed_at, ds_at, visible_at = world.run_process(writer())
    ds_latency = ds_at - committed_at
    # Fig 19: DS latency in roughly [RTTmax, 2*RTTmax].
    assert rtt * 0.9 <= ds_latency <= rtt * 2.5
    # Global visibility costs roughly one more RTTmax (§8.3).
    assert visible_at - ds_at <= rtt * 1.5


def test_causal_ordering_across_sites():
    # Alice posts at site 0; Bob reads it at site 1 and replies; site 2
    # (or any site) must never show the reply without the original.
    world = make_world(3)
    alice = world.new_client(0)
    bob = world.new_client(1)
    carol = world.new_client(2)
    post = alice.new_id("c0")
    reply = bob.new_id("c1")

    def alice_posts():
        tx = alice.start_tx()
        yield from alice.write(tx, post, b"original")
        yield from alice.commit(tx)

    def bob_replies():
        while True:
            tx = bob.start_tx()
            seen = yield from bob.read(tx, post)
            if seen is not None:
                yield from bob.write(tx, reply, b"reply")
                status = yield from bob.commit(tx)
                assert status == "COMMITTED"
                return
            yield from bob.commit(tx)
            yield world.kernel.timeout(0.020)

    def carol_checks():
        violations = []
        for _ in range(200):
            tx = carol.start_tx()
            r = yield from carol.read(tx, reply)
            p = yield from carol.read(tx, post)
            yield from carol.commit(tx)
            if r is not None and p is None:
                violations.append(world.kernel.now)
            yield world.kernel.timeout(0.005)
        return violations

    world.kernel.spawn(alice_posts())
    world.kernel.spawn(bob_replies())
    checker = world.kernel.spawn(carol_checks())
    world.run(until=10.0)
    assert checker.done and checker.value == []


def test_long_fork_observable_then_merges():
    world = make_world(2)
    client0 = world.new_client(0)
    client1 = world.new_client(1)
    a = client0.new_id("c0")
    b = client1.new_id("c1")

    def scenario():
        tx0 = client0.start_tx()
        yield from client0.write(tx0, a, b"A")
        yield from client0.commit(tx0)
        tx1 = client1.start_tx()
        yield from client1.write(tx1, b, b"B")
        yield from client1.commit(tx1)
        # Immediately: each site sees only its own write (long fork).
        r0 = client0.start_tx()
        saw_a_0 = yield from client0.read(r0, a)
        saw_b_0 = yield from client0.read(r0, b)
        yield from client0.commit(r0)
        r1 = client1.start_tx()
        saw_a_1 = yield from client1.read(r1, a)
        saw_b_1 = yield from client1.read(r1, b)
        yield from client1.commit(r1)
        return (saw_a_0, saw_b_0, saw_a_1, saw_b_1)

    fork = world.run_process(scenario())
    assert fork == (b"A", None, None, b"B")
    world.settle(2.0)

    def merged():
        tx = world.new_client(0).start_tx()
        client = tx.client
        va = yield from client.read(tx, a)
        vb = yield from client.read(tx, b)
        yield from client.commit(tx)
        return (va, vb)

    assert world.run_process(merged()) == (b"A", b"B")


def test_cross_site_write_write_conflict_prevented():
    # Site 1 writes to a site-0-preferred object: slow commit; while it
    # propagates, a local fast commit at site 0 on the same object must
    # not create a conflicting version.  One of the two commits.
    world = make_world(2)
    client0 = world.new_client(0)
    client1 = world.new_client(1)
    oid = client0.new_id("c0")

    def site0_writer():
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"local")
        return (yield from client0.commit(tx))

    def site1_writer():
        tx = client1.start_tx()
        yield from client1.write(tx, oid, b"remote")
        return (yield from client1.commit(tx))

    p0 = world.kernel.spawn(site0_writer())
    p1 = world.kernel.spawn(site1_writer())
    world.run(until=10.0)
    world.settle(2.0)
    outcomes = sorted([p0.value, p1.value])
    assert outcomes in (["ABORTED", "COMMITTED"], ["COMMITTED", "COMMITTED"])
    if outcomes == ["COMMITTED", "COMMITTED"]:
        # Both committed => they were causally ordered; final state equal.
        def read_at(client):
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)
            return value

        v0 = world.run_process(read_at(client0))
        v1 = world.run_process(read_at(client1))
        assert v0 == v1


def test_slow_commit_takes_a_round_trip():
    world = make_world(2)
    client0 = world.new_client(0)
    oid_remote = client0.new_id("c1")  # preferred site 1 (CA)

    def scenario():
        tx = client0.start_tx()
        yield from client0.write(tx, oid_remote, b"x")
        t0 = world.kernel.now
        status = yield from client0.commit(tx)
        return (status, world.kernel.now - t0)

    status, latency = world.run_process(scenario())
    assert status == "COMMITTED"
    rtt = world.topology.rtt("VA", "CA")
    assert rtt * 0.9 <= latency <= rtt * 2.0
    assert world.server(0).stats.slow_commits == 1


def test_slow_commit_conflict_with_fast_commit_aborts():
    world = make_world(2)
    client0 = world.new_client(0)
    client1 = world.new_client(1)
    oid = client0.new_id("c0")

    def remote_slow():
        tx = client1.start_tx()
        yield from client1.write(tx, oid, b"slow")
        return (yield from client1.commit(tx))

    def local_fast():
        # Commits while the slow commit's prepare is in flight.
        yield world.kernel.timeout(0.010)
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"fast")
        return (yield from client0.commit(tx))

    slow = world.kernel.spawn(remote_slow())
    fast = world.kernel.spawn(local_fast())
    world.run(until=10.0)
    assert fast.value == "COMMITTED"
    assert slow.value == "ABORTED"


def test_cset_update_anywhere_without_coordination():
    # §8.4: a transaction adding to a cset with a *remote* preferred site
    # still fast-commits (no cross-site coordination).
    world = make_world(2)
    client0 = world.new_client(0)
    cset_oid = client0.new_id("c1", ObjectKind.CSET)  # preferred site 1

    def scenario():
        tx = client0.start_tx()
        yield from client0.set_add(tx, cset_oid, "from-site-0")
        t0 = world.kernel.now
        status = yield from client0.commit(tx)
        return (status, world.kernel.now - t0)

    status, latency = world.run_process(scenario())
    assert status == "COMMITTED"
    assert latency < 0.040  # no RTT in the commit path
    assert world.server(0).stats.slow_commit_attempts == 0


def test_concurrent_cset_updates_from_all_sites_converge():
    world = make_world(3)
    clients = [world.new_client(s) for s in range(3)]
    cset_oid = clients[0].new_id("c0", ObjectKind.CSET)

    def adder(client, elem):
        tx = client.start_tx()
        yield from client.set_add(tx, cset_oid, elem)
        return (yield from client.commit(tx))

    procs = [
        world.kernel.spawn(adder(clients[s], "site-%d" % s)) for s in range(3)
    ]
    world.run(until=10.0)
    assert all(p.value == "COMMITTED" for p in procs)
    world.settle(3.0)

    def read_at(client):
        tx = client.start_tx()
        cset = yield from client.set_read(tx, cset_oid)
        yield from client.commit(tx)
        return cset.counts()

    expected = {"site-0": 1, "site-1": 1, "site-2": 1}
    for client in clients:
        assert world.run_process(read_at(client)) == expected


def test_partial_replication_remote_read():
    # Container replicated only at sites 0,1; a client at site 2 reads it
    # via the preferred site (§5.3).
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("p", preferred_site=0, replica_sites={0, 1})
    client0 = world.new_client(0)
    client2 = world.new_client(2)
    oid = client0.new_id("p")

    def writer():
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"partial")
        yield from client0.commit(tx)

    world.run_process(writer())
    world.settle(2.0)

    def remote_reader():
        tx = client2.start_tx()
        t0 = world.kernel.now
        value = yield from client2.read(tx, oid)
        elapsed = world.kernel.now - t0
        yield from client2.commit(tx)
        return (value, elapsed)

    value, elapsed = world.run_process(remote_reader())
    assert value == b"partial"
    # The read had to fetch from VA: roughly one VA<->IE round trip.
    assert elapsed >= world.topology.rtt(2, 0) * 0.9


def test_partial_replication_write_at_nonreplica_site():
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("p", preferred_site=0, replica_sites={0, 1})
    client2 = world.new_client(2)
    client0 = world.new_client(0)
    oid = client2.new_id("p")

    def writer():
        tx = client2.start_tx()
        yield from client2.write(tx, oid, b"from-site2")
        return (yield from client2.commit(tx))

    assert world.run_process(writer()) == "COMMITTED"
    world.settle(2.0)

    def reader():
        tx = client0.start_tx()
        value = yield from client0.read(tx, oid)
        yield from client0.commit(tx)
        return value

    assert world.run_process(reader()) == b"from-site2"


def test_replica_sets_alone_decide_trimming():
    """A hand-placed container at sites {0, 1}, with no replication
    factor: site 2 receives the record's metadata, but neither its
    history nor its log ever holds the update."""
    world = Deployment(n_sites=3, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    world.create_container("p", preferred_site=0, replica_sites={0, 1})
    client0 = world.new_client(0)
    oid = client0.new_id("p")

    def writer():
        tx = client0.start_tx()
        yield from client0.write(tx, oid, b"v")
        return (yield from client0.commit(tx))

    assert world.run_process(writer()) == "COMMITTED"
    world.settle(3.0)
    assert oid in world.server(1).histories
    site2 = world.server(2)
    assert site2.got_vts[0] == 1
    assert oid not in site2.histories
    applied = [record for kind, record in wal_records(site2.storage.log) if kind == "remote_apply"]
    assert [len(record.updates) for record in applied] == [0]


def test_four_site_deployment_full_mesh_propagation():
    world = make_world(4)
    clients = [world.new_client(s) for s in range(4)]
    oids = [clients[s].new_id("c%d" % s) for s in range(4)]

    def writer(s):
        tx = clients[s].start_tx()
        yield from clients[s].write(tx, oids[s], ("site%d" % s).encode())
        return (yield from clients[s].commit(tx))

    procs = [world.kernel.spawn(writer(s)) for s in range(4)]
    world.run(until=10.0)
    assert all(p.value == "COMMITTED" for p in procs)
    world.settle(3.0)

    def read_all(client):
        tx = client.start_tx()
        values = []
        for oid in oids:
            value = yield from client.read(tx, oid)
            values.append(value)
        yield from client.commit(tx)
        return values

    expected = [b"site0", b"site1", b"site2", b"site3"]
    for client in clients:
        assert world.run_process(read_all(client)) == expected
