"""Failure handling (§5.7): server replacement, conservative waiting,
aggressive site removal, and re-integration."""

import pytest

from repro.core import ObjectKind
from repro.deployment import Deployment
from repro.net import RpcError, RpcRemoteError, RpcTimeout
from repro.storage import FLUSH_MEMORY


def make_world(n_sites=2, **kwargs):
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


class TestServerReplacement:
    def test_replacement_recovers_committed_state(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        assert commit_write(world, client, oid, b"before-crash") == "COMMITTED"
        world.crash_server(0)
        world.replace_server(0)
        client2 = world.new_client(0)
        assert read_value(world, client2, oid) == b"before-crash"

    def test_replacement_resumes_propagation(self):
        # Commit at site 0, crash its server before propagation completes,
        # replace it; site 1 must still eventually see the write.
        world = make_world(2)
        client0 = world.new_client(0)
        oid = client0.new_id("c0")

        def writer():
            tx = client0.start_tx()
            yield from client0.write(tx, oid, b"survives")
            return (yield from client0.commit(tx))

        assert world.run_process(writer()) == "COMMITTED"
        # Crash immediately: the PROPAGATE batch is in flight or undelivered.
        world.crash_server(0)
        replacement = world.replace_server(0)
        world.settle(3.0)
        assert replacement.stats.resumed_propagations >= 1
        client1 = world.new_client(1)
        assert read_value(world, client1, oid) == b"survives"

    def test_replacement_recovers_remote_state(self):
        world = make_world(2)
        client1 = world.new_client(1)
        oid = client1.new_id("c1")
        assert commit_write(world, client1, oid, b"remote-data") == "COMMITTED"
        world.settle(3.0)  # propagate to site 0
        world.crash_server(0)
        world.replace_server(0)
        client0 = world.new_client(0)
        assert read_value(world, client0, oid) == b"remote-data"

    def test_outstanding_transactions_of_crashed_server_are_lost(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")

        def scenario():
            tx = client.start_tx()
            yield from client.write(tx, oid, b"uncommitted")
            world.crash_server(0)
            world.replace_server(0)
            # Commit RPC goes to the replacement, which never saw the tx.
            with pytest.raises(RpcError):
                yield from client.commit(tx)
            return True

        assert world.run_process(scenario(), within=120.0) is True
        client2 = world.new_client(0)
        assert read_value(world, client2, oid) is None

    def test_takeover_counts_fenced_records_in_the_registry(self):
        world = make_world(1)
        client = world.new_client(0)
        oid = client.new_id("c0")
        world.storages[0].inject_flush_stall(60.0)
        outcome = []

        def scenario():
            tx = client.start_tx()
            yield from client.write(tx, oid, b"never durable")
            try:
                outcome.append((yield from client.commit(tx)))
            except RpcError as exc:
                outcome.append(exc)

        world.kernel.spawn(scenario(), name="stalled-commit")
        world.kernel.run(until=world.kernel.now + 1.0)
        assert not outcome  # the commit record waits on the stalled WAL
        world.crash_server(0)
        world.replace_server(0)
        fenced = world.metrics_snapshot()["counters"]["disklog.fenced{site=0}"]
        assert fenced >= 1
        assert world.storages[0].log.stats.fenced == fenced

    def test_recovery_with_checkpoint(self):
        world = make_world(1)
        world.server(0).enable_checkpointing(interval=0.5)
        client = world.new_client(0)
        oids = [client.new_id("c0") for _ in range(5)]
        for i, oid in enumerate(oids):
            commit_write(world, client, oid, b"v%d" % i)
            world.settle(0.3)
        world.settle(1.0)  # let a checkpoint cover a prefix
        assert world.storages[0].checkpoint is not None
        world.crash_server(0)
        world.replace_server(0)
        client2 = world.new_client(0)
        for i, oid in enumerate(oids):
            assert read_value(world, client2, oid) == b"v%d" % i


class TestReplacementAfterPreload:
    """Preloaded state is each storage's initial durable image: a
    replacement server restarts from it, not from commit records."""

    def preloaded(self):
        world = make_world(3)
        client = world.new_client(0)
        oids = [client.new_id("c0") for _ in range(6)]
        world.preload({oid: b"pre%d" % i for i, oid in enumerate(oids)})
        return world, oids

    def read_all(self, world, site, oids):
        client = world.new_client(site)

        def scenario():
            tx = client.start_tx()
            values = []
            for oid in oids:
                values.append((yield from client.read(tx, oid)))
            yield from client.commit(tx)
            return values

        return world.run_process(scenario())

    def test_replaced_site0_continues_the_preloaded_seqno_stream(self):
        # Restarting from a WAL that holds no preload handed out <0:1>
        # again, the first preloaded object's version: the write then
        # sat twice in site 0's history and every other site dropped it
        # as a duplicate.
        world, oids = self.preloaded()
        world.crash_server(0)
        replacement = world.replace_server(0)
        assert replacement.curr_seqno == len(oids)
        assert commit_write(world, world.new_client(0), oids[0], b"new") == "COMMITTED"
        world.settle(3.0)
        expected = [b"new"] + [b"pre%d" % i for i in range(1, len(oids))]
        for site in range(3):
            assert self.read_all(world, site, oids) == expected

    def test_replaced_site_reads_every_preloaded_value(self):
        world, oids = self.preloaded()
        world.crash_server(1)
        replacement = world.replace_server(1)
        # The image already covers site 0's stream: nothing to fetch.
        assert replacement.got_vts[0] == replacement.committed_vts[0] == len(oids)
        world.settle(1.0)
        assert self.read_all(world, 1, oids) == [b"pre%d" % i for i in range(len(oids))]
        assert replacement.histories.get(oids[0]) is world.servers[2].histories.get(oids[0])


class TestConservativeRecovery:
    def test_writes_to_failed_preferred_site_blocked_until_return(self):
        # Conservative option: wait for the site; meanwhile writes to its
        # objects cannot commit (they need the failed preferred site).
        world = make_world(2)
        client0 = world.new_client(0)
        oid_of_site1 = client0.new_id("c1")
        world.fail_site(1)

        def blocked_writer():
            tx = client0.start_tx()
            yield from client0.write(tx, oid_of_site1, b"blocked")
            # Slow commit cannot reach site 1: prepare times out, abort.
            return (yield from client0.commit(tx))

        assert world.run_process(blocked_writer(), within=120.0) == "ABORTED"

        # Site comes back (conservative: same server, links heal).
        for other in range(2):
            if other != 1:
                world.network.heal(1, other)
        world.network.recover_host(world.addresses[1])
        restored = world.replace_server(1)
        assert restored is world.servers[1]

        def retry_writer():
            tx = client0.start_tx()
            yield from client0.write(tx, oid_of_site1, b"after-return")
            return (yield from client0.commit(tx))

        assert world.run_process(retry_writer(), within=120.0) == "COMMITTED"

    def test_reads_of_locally_replicated_data_keep_working(self):
        world = make_world(2)
        client0 = world.new_client(0)
        oid1 = client0.new_id("c1")
        client1 = world.new_client(1)
        assert commit_write(world, client1, oid1, b"replicated-here") == "COMMITTED"
        world.settle(3.0)
        world.fail_site(1)
        # Full replication: site 0 serves the read from its own replica.
        assert read_value(world, client0, oid1) == b"replicated-here"


class TestAggressiveRecovery:
    def test_remove_site_reassigns_preferred_site(self):
        world = make_world(2)
        client0 = world.new_client(0)
        oid_of_site1 = client0.new_id("c1")
        world.fail_site(1)
        world.remove_site(failed_site=1, reassign_to=0, within=120.0)
        assert world.config.active_sites() == [0]
        assert world.config.container("c1").preferred_site == 0

        # Writes to the reassigned container now fast-commit at site 0.
        assert commit_write(world, client0, oid_of_site1, b"new-home") == "COMMITTED"
        assert world.server(0).stats.slow_commit_attempts == 0

    def test_propagated_transactions_survive_removal(self):
        world = make_world(3)
        client2 = world.new_client(2)
        oid = client2.new_id("c2")
        assert commit_write(world, client2, oid, b"made-it-out") == "COMMITTED"
        world.settle(3.0)  # fully propagated
        world.fail_site(2)
        upto = world.remove_site(failed_site=2, reassign_to=0, within=120.0)
        assert upto >= 1
        client0 = world.new_client(0)
        assert read_value(world, client0, oid) == b"made-it-out"

    def test_unpropagated_transactions_are_abandoned(self):
        # Aggressive option sacrifices committed-but-unreplicated txs.
        world = make_world(2)
        client1 = world.new_client(1)
        oid = client1.new_id("c1")
        # Partition first so the commit cannot propagate, then commit.
        world.network.partition(0, 1)
        assert commit_write(world, client1, oid, b"doomed") == "COMMITTED"
        world.servers[1].crash()
        upto = world.remove_site(failed_site=1, reassign_to=0, within=120.0)
        assert upto == 0  # nothing from site 1 reached site 0
        client0 = world.new_client(0)
        assert read_value(world, client0, oid) is None

    def test_partially_propagated_prefix_survives(self):
        # Site 1 commits tx1 which reaches site 0, then is cut off and
        # commits tx2 which does not.  After removal, tx1 survives and is
        # committed at site 0; tx2 is abandoned.
        world = make_world(2)
        client1 = world.new_client(1)
        oid_a = client1.new_id("c1")
        oid_b = client1.new_id("c1")
        assert commit_write(world, client1, oid_a, b"first") == "COMMITTED"
        world.settle(3.0)
        world.network.partition(0, 1)
        assert commit_write(world, client1, oid_b, b"second") == "COMMITTED"
        world.servers[1].crash()
        upto = world.remove_site(failed_site=1, reassign_to=0, within=120.0)
        assert upto == 1
        client0 = world.new_client(0)
        assert read_value(world, client0, oid_a) == b"first"
        assert read_value(world, client0, oid_b) is None


class TestReintegration:
    def test_failed_site_returns_and_takes_back_containers(self):
        world = make_world(2)
        client0 = world.new_client(0)
        client1 = world.new_client(1)
        oid1 = client1.new_id("c1")
        assert commit_write(world, client1, oid1, b"original") == "COMMITTED"
        world.settle(3.0)

        world.fail_site(1)
        world.remove_site(failed_site=1, reassign_to=0, within=120.0)
        # While removed, site 0 commits to the displaced container.
        assert commit_write(world, client0, oid1, b"updated-during-outage") == "COMMITTED"
        world.settle(1.0)

        world.reintegrate_site(1, within=120.0)
        assert world.config.active_sites() == [0, 1]
        assert world.config.container("c1").preferred_site == 1
        world.settle(3.0)

        # The returning site sees the update made during its absence.
        client1b = world.new_client(1)
        assert read_value(world, client1b, oid1) == b"updated-during-outage"
        # And it can fast-commit to its containers again.
        assert commit_write(world, client1b, oid1, b"back-home") == "COMMITTED"
        assert world.servers[1].stats.slow_commit_attempts == 0
        world.settle(3.0)
        assert read_value(world, client0, oid1) == b"back-home"

    def test_reintegrated_site_discards_abandoned_transactions(self):
        world = make_world(2)
        client1 = world.new_client(1)
        oid = client1.new_id("c1")
        world.network.partition(0, 1)
        assert commit_write(world, client1, oid, b"abandoned") == "COMMITTED"
        world.servers[1].crash()
        world.remove_site(failed_site=1, reassign_to=0, within=120.0)
        world.reintegrate_site(1, within=120.0)
        world.settle(3.0)
        client1b = world.new_client(1)
        # The abandoned write was discarded during re-integration.
        assert read_value(world, client1b, oid) is None


class TestMidTransactionServerLoss:
    def test_access_after_replacement_fails_rather_than_forking_tx(self):
        # A client mid-transaction loses its server; the replacement must
        # reject further accesses for that tid instead of silently
        # starting a fresh transaction (which would commit a *partial*
        # update set).
        world = make_world(1)
        client = world.new_client(0)
        oid_a = client.new_id("c0")
        oid_b = client.new_id("c0")

        def scenario():
            tx = client.start_tx()
            yield from client.write(tx, oid_a, b"first half")
            world.crash_server(0)
            world.replace_server(0)
            with pytest.raises(RpcError):
                yield from client.write(tx, oid_b, b"second half")
            with pytest.raises(RpcError):
                yield from client.commit(tx)
            return True

        assert world.run_process(scenario(), within=240.0) is True
        client2 = world.new_client(0)
        # Neither half was committed: atomicity preserved.
        assert read_value(world, client2, oid_a) is None
        assert read_value(world, client2, oid_b) is None
