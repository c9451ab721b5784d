"""Server execution details: leases, GC, trace recording, takeover."""

import pytest

from repro.core import ObjectKind, VectorTimestamp
from repro.deployment import Deployment
from repro.net import RpcRemoteError
from repro.spec.checker import check_site_snapshot_reads
from repro.storage import FLUSH_MEMORY


def make_world(n_sites=2):
    d = Deployment(n_sites=n_sites, flush_latency=FLUSH_MEMORY, jitter_frac=0.0)
    for site in range(n_sites):
        d.create_container("c%d" % site, preferred_site=site)
    return d


def commit_write(world, client, oid, data):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, data)
        return (yield from client.commit(tx))

    return world.run_process(scenario(), within=120.0)


class TestLeases:
    def test_suspended_lease_rejects_fast_commit(self):
        world = make_world(2)
        client = world.new_client(0)
        oid = client.new_id("c0")
        world.config.suspend_leases_of_site(0)
        assert commit_write(world, client, oid, b"v") == "ABORTED"
        assert world.servers[0].stats.aborts == 1

    def test_suspended_lease_votes_no_in_prepare(self):
        world = make_world(2)
        client0 = world.new_client(0)
        oid_site1 = client0.new_id("c1")
        world.config.suspend_leases_of_site(1)
        # Slow commit from site 0 to site 1's object: prepare votes NO.
        assert commit_write(world, client0, oid_site1, b"v") == "ABORTED"

    def test_reads_unaffected_by_lease_suspension(self):
        world = make_world(2)
        client = world.new_client(0)
        oid = client.new_id("c0")
        assert commit_write(world, client, oid, b"v") == "COMMITTED"
        world.config.suspend_leases_of_site(0)

        def scenario():
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)  # read-only: no lease needed
            return value

        assert world.run_process(scenario()) == b"v"


class TestGC:
    def test_gc_drops_superseded_regular_versions(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        for i in range(5):
            assert commit_write(world, client, oid, b"v%d" % i) == "COMMITTED"
        server = world.server(0)
        assert len(server.histories.history(oid)) == 5
        removed = server.gc_histories()
        assert removed == 4
        assert len(server.histories.history(oid)) == 1

        def scenario():
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)
            return value

        assert world.run_process(scenario()) == b"v4"

    def test_gc_preserves_csets(self):
        world = make_world(1)
        client = world.new_client(0)
        cset_oid = client.new_id("c0", ObjectKind.CSET)

        def adds():
            for i in range(4):
                tx = client.start_tx()
                yield from client.set_add(tx, cset_oid, i)
                yield from client.commit(tx)

        world.run_process(adds())
        server = world.server(0)
        server.gc_histories()
        # The entries are folded into the cached base (no information is
        # lost, unlike regular-object pruning), so the retained suffix is
        # empty but the visible value is intact.
        hist = server.histories.history(cset_oid)
        assert len(hist) == 0
        assert hist.base_counts == {0: 1, 1: 1, 2: 1, 3: 1}

        def scenario():
            tx = client.start_tx()
            cset = yield from client.set_read(tx, cset_oid)
            yield from client.commit(tx)
            return cset

        assert world.run_process(scenario()).counts() == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_watermark_held_back_by_active_transaction(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        assert commit_write(world, client, oid, b"v0") == "COMMITTED"

        pinner = world.new_client(0)
        pinned = pinner.start_tx()
        world.run_process(pinner.begin(pinned))  # snapshot at seqno 1

        for i in range(1, 4):
            assert commit_write(world, client, oid, b"v%d" % i) == "COMMITTED"
        world.settle(0.5)  # retire propagation trackers
        server = world.server(0)
        assert list(server.committed_vts) == [4]
        assert list(server.gc_watermark()) == [1]
        # GC at the held-back watermark: versions 2..4 stay readable.
        assert server.gc_histories() == 0
        world.run_process(pinner.abort(pinned))
        assert list(server.gc_watermark()) == [4]
        assert server.gc_histories() == 3

        def read():
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)
            return value

        assert world.run_process(read()) == b"v3"

    def test_gc_prunes_settled_commit_records(self):
        # GC collects history entries but keeps every commit record:
        # catch-up, recovery_fetch and retransmission serve other sites
        # from them, and the watermark is local (DESIGN.md §8).
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        for i in range(3):
            assert commit_write(world, client, oid, b"v%d" % i) == "COMMITTED"
        world.settle(1.0)  # all globally visible (single site)
        server = world.server(0)
        assert len(server._records_by_version) == 3
        assert server.gc_histories() == 2
        assert len(server._records_by_version) == 3
        assert len(server.histories.history(oid)) == 1
        # The WAL still has everything: a replacement rebuilds correctly.
        world.crash_server(0)
        world.replace_server(0)
        client2 = world.new_client(0)

        def read():
            tx = client2.start_tx()
            value = yield from client2.read(tx, oid)
            yield from client2.commit(tx)
            return value

        assert world.run_process(read()) == b"v2"

    def test_gc_skipped_while_site_inactive(self):
        world = make_world(2)
        client = world.new_client(0)
        oid = client.new_id("c0")
        for i in range(3):
            assert commit_write(world, client, oid, b"v%d" % i) == "COMMITTED"
        world.settle(1.0)
        world.config.deactivate_site(0)
        assert world.server(0).gc_histories() == 0
        world.config.activate_site(0)
        assert world.server(0).gc_histories() == 2

    def test_metrics_snapshot_exposes_watermark_gauges(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        assert commit_write(world, client, oid, b"v") == "COMMITTED"
        gauges = world.metrics_snapshot()["gauges"]
        assert gauges["server.gc_watermark{site=0}"] == 1
        assert gauges["server.history_entries{site=0}"] == 1
        assert gauges["server.commit_records{site=0}"] == 1
        assert list(world.gc_watermarks()[0]) == [1]


class TestReadMissAllocation:
    def test_snapshot_read_of_unwritten_oid_does_not_allocate(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        server = world.server(0)
        before = set(server.histories.known_oids())

        def read():
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)
            return value

        assert world.run_process(read()) is None
        assert set(server.histories.known_oids()) == before


class TestRemoteReadCausality:
    def _world(self):
        world = make_world(2)
        # Replicated ONLY at its preferred site 1: site 0 must read it
        # remotely, merging with its own local-history versions (§5.3).
        world.create_container("r1", preferred_site=1, replica_sites=[1])
        return world

    def test_remote_read_prefers_causally_newest_version(self):
        world = self._world()
        client0, client1 = world.new_client(0), world.new_client(1)
        oid = client0.new_id("r1")
        # Older version committed AT site 0 (slow commit; site 0 keeps it
        # in its local history), fully propagated ...
        assert commit_write(world, client0, oid, b"older-local") == "COMMITTED"
        world.settle(2.0)
        # ... then a causally newer version at the preferred site.
        assert commit_write(world, client1, oid, b"newer-remote") == "COMMITTED"
        world.settle(2.0)

        def read_at_site0():
            tx = client0.start_tx()
            value = yield from client0.read(tx, oid)
            yield from client0.commit(tx)
            return value

        assert world.run_process(read_at_site0()) == b"newer-remote"
        # Regression: after the preferred site GC-prunes the older
        # version, it disappears from the remote payload while still
        # sitting in site 0's local history.  Composing by list position
        # used to resurrect it; the remote watermark filter must not.
        assert world.server(1).gc_histories() >= 1
        assert world.run_process(read_at_site0()) == b"newer-remote"

    def test_remote_cset_read_folds_base_and_local_suffix(self):
        world = self._world()
        client0, client1 = world.new_client(0), world.new_client(1)
        cset = client0.new_id("r1", ObjectKind.CSET)

        def add(client, elem):
            def scenario():
                tx = client.start_tx()
                yield from client.set_add(tx, cset, elem)
                return (yield from client.commit(tx))

            return world.run_process(scenario())

        assert add(client0, "from-site0") == "COMMITTED"
        assert add(client1, "from-site1") == "COMMITTED"
        world.settle(2.0)
        world.server(1).gc_histories()  # folds both into the base

        def read_at_site0():
            tx = client0.start_tx()
            value = yield from client0.set_read(tx, cset)
            yield from client0.commit(tx)
            return value

        counts = world.run_process(read_at_site0()).counts()
        assert counts == {"from-site0": 1, "from-site1": 1}


class TestSetReadId:
    def test_set_read_id_counts_buffered_and_commits_with_last(self):
        world = make_world(1)
        client = world.new_client(0)
        cset = client.new_id("c0", ObjectKind.CSET)

        def scenario():
            tx = client.start_tx()
            yield from client.set_add(tx, cset, "e")
            count = yield from client.set_read_id(tx, cset, "e", last=True)
            return count, tx.status

        count, status = world.run_process(scenario())
        assert count == 1
        assert status == "COMMITTED"
        assert world.server(0).stats.commits == 1

    def test_set_read_id_rejected_at_replacement_server(self):
        # Same contract as tx_read: a replacement server that lost the
        # transaction's buffered updates must fail the access loudly, not
        # silently start a fresh (empty) transaction.
        world = make_world(1)
        client = world.new_client(0)
        cset = client.new_id("c0", ObjectKind.CSET)

        def scenario():
            tx = client.start_tx()
            yield from client.set_add(tx, cset, "e")
            world.crash_server(0)
            world.replace_server(0)
            with pytest.raises(RpcRemoteError, match="TransactionState"):
                yield from client.set_read_id(tx, cset, "e")
            return True

        assert world.run_process(scenario(), within=240.0) is True


class TestTrace:
    def test_buffered_reads_not_traced(self):
        world = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY, trace=True)
        world.create_container("c", preferred_site=0)
        client = world.new_client(0)
        oid = client.new_id("c")

        def scenario():
            tx = client.start_tx()
            yield from client.write(tx, oid, b"mine")
            yield from client.read(tx, oid)  # shadowed by the buffer
            yield from client.commit(tx)

        world.run_process(scenario())
        assert world.trace.reads == []

    def test_snapshot_reads_traced(self):
        world = Deployment(n_sites=1, flush_latency=FLUSH_MEMORY, trace=True)
        world.create_container("c", preferred_site=0)
        client = world.new_client(0)
        oid = client.new_id("c")

        def scenario():
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)
            return value

        world.run_process(scenario())
        assert len(world.trace.reads) == 1
        assert world.trace.reads[0].oid == oid

    def test_remote_reads_traced(self):
        """A read served by another site -- alone or in a multiread --
        reaches the PSI checker like a local one."""
        world = Deployment(
            n_sites=2, replication=1, flush_latency=FLUSH_MEMORY, trace=True
        )
        world.create_container("c1", preferred_site=1)
        writer, reader = world.new_client(1), world.new_client(0)
        x, y, z = (writer.new_id("c1") for _ in range(3))
        for oid in (x, y, z):
            assert commit_write(world, writer, oid, b"v") == "COMMITTED"
        world.settle(2.0)

        def scenario():
            tx = reader.start_tx()
            read = yield from reader.read(tx, x)
            multiread = yield from reader.multiread(tx, [y, z])
            yield from reader.commit(tx)
            return [read] + list(multiread)

        assert world.run_process(scenario()) == [b"v"] * 3
        traced = [(r.site, r.oid, r.value) for r in world.trace.reads]
        assert traced == [(0, x, b"v"), (0, y, b"v"), (0, z, b"v")]
        assert check_site_snapshot_reads(world.trace) == []


class TestRemoteMultiread:
    def test_multiread_matches_single_reads(self):
        """``multiread`` reads each object as ``read`` does: a local
        object, one replicated here but preferred elsewhere, and remote
        regular and cset objects, with and without the transaction's own
        write, add or del on top of the fetched versions."""
        world = make_world(2)
        world.create_container("r1", preferred_site=1, replica_sites=[1])
        client0, client1 = world.new_client(0), world.new_client(1)
        local, far = client0.new_id("c0"), client0.new_id("c1")
        x = client0.new_id("r1")
        s = client0.new_id("r1", ObjectKind.CSET)
        oids = [local, x, s, far]

        def commit(client, *ops):
            def scenario():
                tx = client.start_tx()
                for op, oid, arg in ops:
                    yield from getattr(client, op)(tx, oid, arg)
                return (yield from client.commit(tx))

            assert world.run_process(scenario()) == "COMMITTED"
            world.settle(2.0)

        # Site 0 commits to r1 too (slow commit), so its local history of
        # the non-replicated objects is merged with the preferred site's.
        commit(client1, ("write", x, b"x1"), ("set_add", s, "a"), ("write", far, b"f"))
        commit(client0, ("write", x, b"x2"), ("set_add", s, "b"), ("write", local, b"l"))

        def values(own, multi):
            def scenario():
                tx = client0.start_tx()
                for op, oid, arg in own:
                    yield from getattr(client0, op)(tx, oid, arg)
                if multi:
                    out = yield from client0.multiread(tx, oids)
                else:
                    out = []
                    for oid in oids:
                        out.append((yield from client0.read(tx, oid)))
                yield from client0.abort(tx)
                return [v.counts() if oid is s else v for oid, v in zip(oids, out)]

            return world.run_process(scenario())

        ab = {"a": 1, "b": 1}
        cases = [
            ((), [b"l", b"x2", ab, b"f"]),
            ((("write", x, b"mine"),), [b"l", b"mine", ab, b"f"]),
            ((("set_add", s, "z"),), [b"l", b"x2", dict(ab, z=1), b"f"]),
            ((("set_del", s, "a"),), [b"l", b"x2", {"b": 1}, b"f"]),
        ]
        for own, expect in cases:
            assert values(own, multi=False) == expect
            assert values(own, multi=True) == expect


class TestPreload:
    def test_preload_is_visible_and_consistent_everywhere(self):
        world = make_world(3)
        container = world.config.container("c0")
        oid = container.new_id()
        cset_oid = container.new_id(ObjectKind.CSET)
        world.preload({oid: b"seeded", cset_oid: ["a", "b"]})
        for site in range(3):
            client = world.new_client(site)

            def scenario(client=client):
                tx = client.start_tx()
                value = yield from client.read(tx, oid)
                cset = yield from client.set_read(tx, cset_oid)
                yield from client.commit(tx)
                return (value, sorted(cset.members()))

            assert world.run_process(scenario()) == (b"seeded", ["a", "b"])

    def test_preload_does_not_break_subsequent_commits(self):
        world = make_world(2)
        container = world.config.container("c0")
        preloaded = {container.new_id(): b"x" for _ in range(10)}
        world.preload(preloaded)
        client = world.new_client(0)
        oid = next(iter(preloaded))
        assert commit_write(world, client, oid, b"overwritten") == "COMMITTED"
        world.settle(2.0)
        client1 = world.new_client(1)

        def scenario():
            tx = client1.start_tx()
            value = yield from client1.read(tx, oid)
            yield from client1.commit(tx)
            return value

        assert world.run_process(scenario()) == b"overwritten"


class TestServerMisc:
    def test_unknown_container_read_is_remote_error(self):
        world = make_world(1)
        client = world.new_client(0)
        from repro.core import ObjectId

        ghost = ObjectId("no-such-container", "x")

        def scenario():
            tx = client.start_tx()
            with pytest.raises(RpcRemoteError, match="NoSuchContainer"):
                yield from client.read(tx, ghost)
            return True

        assert world.run_process(scenario()) is True

    def test_commit_with_no_accesses_is_empty_read_only_tx(self):
        world = make_world(1)
        client = world.new_client(0)

        def scenario():
            tx = client.start_tx()
            # Commit is the first server contact: starts an empty tx.
            return (yield from client.commit(tx))

        assert world.run_process(scenario()) == "COMMITTED"
        assert world.server(0).stats.read_only_commits == 1

    def test_repr(self):
        world = make_world(1)
        assert "site=0" in repr(world.server(0))
