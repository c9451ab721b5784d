"""Intra-site keyspace sharding with partial replication (ISSUE 9).

Every base site runs ``shards`` co-located shard servers, each a full
logical Walter site (own seqno stream, WAL, cache, propagation stream);
clients route containers to shards by a deterministic keyspace hash.
``replication=R`` additionally stores each container's shard group at
only R base sites (metadata still propagates everywhere, data is trimmed
per destination), with non-replica reads served by the nearest replica.

These tests pin the tentpole's contract:

* ``shards=1`` takes the exact legacy code path (same topology object);
* routing is a pure function of the container id (crc32, not the
  salted builtin ``hash``);
* fast commits stay shard-local, slow commits 2PC across (site, shard)
  participants, and conflicts abort exactly one of the racers;
* partial replication stores no data at non-replica sites but keeps
  every site's committed frontier converging;
* a stalled shard stream does not make ``SnapshotTooOldError`` fire for
  *other* shards' objects (per-site watermark precision).
"""

import pytest

import zlib

from repro.chaos import ChaosConfig, run_chaos
from repro.core import ObjectKind
from repro.deployment import Deployment
from repro.errors import SnapshotTooOldError
from repro.net import Topology
from repro.spec.checker import check_site_snapshot_reads
from repro.storage import FLUSH_MEMORY


def make_world(n_sites=2, shards=2, **kwargs):
    kwargs.setdefault("flush_latency", FLUSH_MEMORY)
    kwargs.setdefault("jitter_frac", 0.0)
    return Deployment(n_sites=n_sites, shards=shards, **kwargs)


def write_value(world, client, oid, value):
    def op():
        tx = client.start_tx()
        yield from client.write(tx, oid, value)
        return (yield from client.commit(tx))

    return world.run_process(op())


def read_value(world, client, oid):
    def op():
        tx = client.start_tx()
        value = yield from client.read(tx, oid)
        yield from client.commit(tx)
        return value

    return world.run_process(op())


class TestShardedTopology:
    def test_sharded_structure(self):
        base = Topology.ec2(3)
        topo = Topology.sharded(base, 4)
        assert len(topo) == 12
        assert set(topo.shard_of.values()) == set(range(4))
        # Names: "<base>/s<k>", grouped contiguously per base site.
        assert topo.sites[0].name == "%s/s0" % base.sites[0].name
        assert topo.sites[5].name == "%s/s1" % base.sites[1].name
        for logical in range(12):
            assert topo.base_of[logical] == logical // 4
            assert topo.shard_of[logical] == logical % 4

    def test_lan_vs_wan_rtts(self):
        base = Topology.ec2(2)
        topo = Topology.sharded(base, 2, lan_rtt_ms=0.3)
        # Same base, different shard: LAN.
        assert topo.rtt(0, 1) == pytest.approx(0.3e-3)
        # Different bases inherit the base pair's WAN RTT.
        assert topo.rtt(0, 2) == pytest.approx(base.rtt(0, 1))
        assert topo.rtt(1, 3) == pytest.approx(base.rtt(0, 1))
        # Same logical site: the base's local RTT.
        assert topo.rtt(0, 0) == pytest.approx(base.rtt(0, 0))

    def test_intra_base_links_get_intra_bandwidth(self):
        topo = Topology.sharded(Topology.ec2(2), 2)
        assert topo.bandwidth_bps(0, 1) == topo.intra_bandwidth_bps
        assert topo.bandwidth_bps(0, 2) == topo.cross_bandwidth_bps

    def test_single_shard_is_identity(self):
        base = Topology.ec2(3)
        world = Deployment(n_sites=3, topology=base, shards=1)
        # Not a copy: shards=1 must take the exact legacy path.
        assert world.topology is base
        assert world.n_sites == 3
        assert world.n_base_sites == 3


class TestShardRouting:
    def test_shard_of_is_crc32(self):
        world = make_world(shards=4)
        for cid in ("a", "users", "acct-17", "éclair"):
            assert world.shard_of(cid) == zlib.crc32(cid.encode("utf-8")) % 4

    def test_logical_site_layout(self):
        world = make_world(n_sites=3, shards=4)
        assert world.logical_site(1, 2) == 6
        assert world.base_site_of(6) == 1
        with pytest.raises(ValueError):
            world.logical_site(0, 4)

    def test_hash_routing_places_container_on_its_shard(self):
        world = make_world(n_sites=2, shards=4)
        for cid in ("alpha", "beta", "gamma"):
            container = world.create_container(cid, preferred_base_site=1)
            shard = world.shard_of(cid)
            assert container.preferred_site == world.logical_site(1, shard)

    def test_default_replica_set_anchors_on_preferred_base(self):
        world = make_world(n_sites=3, shards=2, replication=2)
        container = world.create_container("c", preferred_base_site=1)
        shard = world.shard_of("c")
        expected = {
            world.logical_site(1, shard),
            world.logical_site(2, shard),
        }
        assert set(container.replica_sites) == expected


class TestShardedCommits:
    def test_write_read_across_shards_and_bases(self):
        world = make_world(n_sites=2, shards=2)
        values = {}
        for cid in ("a", "bb", "ccc", "dddd"):
            container = world.create_container(cid, preferred_base_site=0)
            client = world.new_client(container.preferred_site)
            oid = container.new_id()
            assert write_value(world, client, oid, cid.encode()) == "COMMITTED"
            values[oid] = cid.encode()
        world.settle(2.0)
        # Every logical site serves every value after propagation.
        for site in range(world.n_sites):
            reader = world.new_client(site)
            for oid, expected in values.items():
                assert read_value(world, reader, oid) == expected

    def test_cross_shard_slow_commit(self):
        world = make_world(n_sites=2, shards=2)
        a = world.create_container("alpha", preferred_site=0)
        b = world.create_container("beta", preferred_site=1)
        client = world.new_client(0)
        oa, ob = a.new_id(), b.new_id()

        def op():
            tx = client.start_tx()
            yield from client.write(tx, oa, b"A")
            yield from client.write(tx, ob, b"B")
            return (yield from client.commit(tx))

        assert world.run_process(op()) == "COMMITTED"
        world.settle(2.0)
        reader = world.new_client(3)
        assert read_value(world, reader, oa) == b"A"
        assert read_value(world, reader, ob) == b"B"

    def test_cross_shard_conflict_aborts_one_then_retry_commits(self):
        world = make_world(n_sites=2, shards=2)
        a = world.create_container("alpha", preferred_site=0)
        b = world.create_container("beta", preferred_site=1)
        oa, ob = a.new_id(), b.new_id()
        c0 = world.new_client(0)
        c1 = world.new_client(1)

        def racer(client, value):
            tx = client.start_tx()
            yield from client.write(tx, oa, value)
            yield from client.write(tx, ob, value)
            return (yield from client.commit(tx))

        p0 = world.kernel.spawn(racer(c0, b"zero"), name="racer-0")
        p1 = world.kernel.spawn(racer(c1, b"one"), name="racer-1")
        world.run(until=world.kernel.now + 10.0)
        statuses = sorted([p0.value, p1.value])
        # Both write both objects concurrently: 2PC admits at most one.
        assert statuses.count("COMMITTED") <= 1
        assert "ABORTED" in statuses

        # The loser's retry (fresh snapshot) must go through.
        assert world.run_process(racer(c0, b"retry")) == "COMMITTED"
        world.settle(2.0)
        reader = world.new_client(2)
        assert read_value(world, reader, oa) == b"retry"
        assert read_value(world, reader, ob) == b"retry"


class TestPartialReplication:
    def test_non_replica_site_stores_no_data(self):
        world = make_world(n_sites=3, shards=2, replication=2)
        container = world.create_container("c", preferred_base_site=0)
        client = world.new_client(container.preferred_site)
        oid = container.new_id()
        assert write_value(world, client, oid, b"v") == "COMMITTED"
        world.settle(3.0)
        for site in range(world.n_sites):
            server = world.servers[site]
            if container.replicated_at(site):
                assert oid in server.histories.known_oids()
            else:
                assert oid not in server.histories.known_oids()

    def test_frontiers_converge_despite_trimming(self):
        world = make_world(n_sites=3, shards=2, replication=2)
        container = world.create_container("c", preferred_base_site=1)
        client = world.new_client(container.preferred_site)
        oid = container.new_id()
        for i in range(3):
            assert write_value(world, client, oid, b"v%d" % i) == "COMMITTED"
        world.settle(3.0)
        frontiers = {
            tuple(world.servers[s].committed_vts) for s in range(world.n_sites)
        }
        # Metadata propagates everywhere even when the data was trimmed.
        assert len(frontiers) == 1

    def test_non_replica_read_returns_value(self):
        world = make_world(n_sites=3, shards=2, replication=2)
        container = world.create_container("c", preferred_base_site=0)
        client = world.new_client(container.preferred_site)
        oid = container.new_id()
        assert write_value(world, client, oid, b"remote") == "COMMITTED"
        world.settle(3.0)
        non_replica = next(
            s for s in range(world.n_sites) if not container.replicated_at(s)
        )
        reader = world.new_client(non_replica)
        assert read_value(world, reader, oid) == b"remote"

    def test_nearest_replica_selection(self):
        world = make_world(n_sites=3, shards=2, replication=2)
        container = world.create_container("c", preferred_base_site=1)
        non_replica = next(
            s for s in range(world.n_sites) if not container.replicated_at(s)
        )
        server = world.servers[non_replica]
        best = server._nearest_replica(container)
        assert container.replicated_at(best)
        rtts = {
            s: world.topology.rtt(non_replica, s)
            for s in sorted(container.replica_sites)
        }
        assert rtts[best] == min(rtts.values())

    def test_behind_nearest_replica_falls_back_to_preferred_site(self, monkeypatch):
        """Reader site 0 is 20 ms from replica 2 and 100 ms from the
        preferred site 1.  The 1-2 link is cut once replica 2 ACKed the
        second commit, before site 0's ACK makes it DS-durable: only the
        DS-DURABLE announcement misses replica 2, which holds the commit
        without committing it while it is in site 0's snapshot.  Replica
        2 answers None (once per object) and every read is served by the
        preferred site."""
        names = ["A", "B", "C", "D"]
        rtt = {(a, b): 60.0 for a in names for b in names if a < b}
        rtt.update({(a, a): 0.5 for a in names})
        rtt.update({("A", "B"): 100.0, ("A", "C"): 20.0, ("A", "D"): 150.0})
        world = Deployment(
            topology=Topology(names, rtt), replication=3,
            flush_latency=FLUSH_MEMORY, jitter_frac=0.0, trace=True,
        )
        world.create_container("r", preferred_site=1, replica_sites=[1, 2, 3])
        reader, writer = world.new_client(0), world.new_client(1)
        x, y = writer.new_id("r"), writer.new_id("r")
        s = writer.new_id("r", ObjectKind.CSET)
        assert world.servers[0]._nearest_replica(world.config.container("r")) == 2

        def commit(tag):
            def op():
                tx = writer.start_tx()
                yield from writer.write(tx, x, b"x" + tag)
                yield from writer.write(tx, y, b"y" + tag)
                yield from writer.set_add(tx, s, tag)
                return (yield from writer.commit(tx))

            assert world.run_process(op()) == "COMMITTED"

        commit(b"1")
        world.settle(2.0)
        commit(b"2")
        origin, replica = world.servers[1], world.servers[2]
        seqno = origin.curr_seqno
        world.kernel.run(
            until=world.kernel.now + 1.0,
            stop_when=lambda: origin._acked_through[2] >= seqno,
        )
        assert origin._acked_through[2] == seqno > origin._ds_prefix
        world.network.partition(1, 2)
        world.settle(2.0)
        assert origin._ds_prefix == seqno
        assert replica.got_vts[1] == seqno > replica.committed_vts[1]
        assert replica.committed_vts[1] < world.servers[0].committed_vts[1]

        answers = []
        serve = replica.rpc_remote_read

        def counting(oid, start_vts, only_if_current=False):
            payload = serve(oid, start_vts, only_if_current)
            answers.append((oid, payload))
            return payload

        counting.service_time = serve.service_time
        monkeypatch.setattr(replica, "rpc_remote_read", counting)

        def op():
            tx = reader.start_tx()
            single = yield from reader.read(tx, x)
            multi = yield from reader.multiread(tx, [y, s])
            yield from reader.commit(tx)
            return [single, multi[0], sorted(multi[1].members())]

        assert world.run_process(op()) == [b"x2", b"y2", [b"1", b"2"]]
        assert [payload for _oid, payload in answers] == [None] * 3
        assert sorted(oid.local for oid, _payload in answers) == sorted(
            oid.local for oid in (x, y, s)
        )
        assert check_site_snapshot_reads(world.trace) == []


class TestStalledShardWatermarkPrecision:
    def test_snapshot_too_old_stays_object_precise(self):
        """One shard's propagation stream stalls while another shard's
        objects churn and get GC'd: an old snapshot must still read the
        stalled shard's objects -- only the churned objects (whose old
        versions were actually collected) may raise SnapshotTooOldError.
        """
        world = make_world(n_sites=2, shards=2)
        # Container A on (base 0, shard 0) churns; container B on
        # (base 0, shard 1) is the shard whose stream will stall.
        a = world.create_container("churn", preferred_site=0)
        b = world.create_container("stall", preferred_site=1)
        oa, ob = a.new_id(), b.new_id()
        ca = world.new_client(0)
        cb = world.new_client(1)
        assert write_value(world, ca, oa, b"A1") == "COMMITTED"
        assert write_value(world, cb, ob, b"B1") == "COMMITTED"
        world.settle(2.0)

        observer = world.servers[2]  # base 1, shard 0
        old_vts = observer.committed_vts
        assert old_vts[0] >= 1 and old_vts[1] >= 1

        # Stall shard 1's stream toward the observer, then churn shard 0.
        world.network.partition(1, 2)
        for i in range(2, 6):
            assert write_value(world, ca, oa, b"A%d" % i) == "COMMITTED"
        world.settle(2.0)
        removed = observer.gc_histories()
        assert removed > 0  # superseded churn versions were collected

        # The stalled shard's object still reads fine at the old
        # snapshot: its per-site entries were never collected.
        assert observer.histories.read_regular(ob, old_vts) == b"B1"
        # The churned object's old version is legitimately gone.
        with pytest.raises(SnapshotTooOldError):
            observer.histories.read_regular(oa, old_vts)


class TestShardedChaos:
    def test_sharded_chaos_verdict_clean(self):
        result = run_chaos(
            ChaosConfig(seed=5, n_sites=2, shards=2, txs_per_client=4)
        )
        assert result.passed, result.verdict_json()

    def test_sharded_partial_replication_chaos_verdict_clean(self):
        result = run_chaos(
            ChaosConfig(
                seed=6, n_sites=3, shards=2, replication=2, txs_per_client=4
            )
        )
        assert result.passed, result.verdict_json()
