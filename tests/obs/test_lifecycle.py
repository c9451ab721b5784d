"""End-to-end span lifecycle through a real deployment.

A slow-commit transaction's trace contains the 2PC prepare/commit
phases, its visibility lag is at least its ds-durability lag, and
per-site cache/lag metrics show up in the shared registry.
"""

import pytest

from repro.bench import format_site_observability
from repro.deployment import Deployment
from repro.obs import (
    DISKLOG_FLUSH,
    DS_DURABLE,
    EXECUTE,
    FAST_COMMIT,
    GLOBALLY_VISIBLE,
    PROPAGATE_SEND,
    REMOTE_APPLY,
    REMOTE_COMMIT,
    SLOW_COMMIT_COMMIT,
    SLOW_COMMIT_PREPARE,
)


@pytest.fixture
def world():
    return Deployment(n_sites=2, tracing=True, seed=7)


def _commit_one(world, client, oid, payload=b"v"):
    def scenario():
        tx = client.start_tx()
        yield from client.write(tx, oid, payload)
        status = yield from client.commit(tx)
        return tx.tid, status

    tid, status = world.run_process(scenario())
    assert status == "COMMITTED"
    return tid


class TestFastCommitLifecycle:
    def test_full_span_sequence(self, world):
        world.create_container("local", preferred_site=0)
        client = world.new_client(0)
        tid = _commit_one(world, client, client.new_id("local"))
        world.settle(2.0)

        trace = world.obs.tracer.get(tid)
        names = [e.name for e in trace.events]
        for expected in (
            EXECUTE, FAST_COMMIT, DISKLOG_FLUSH, PROPAGATE_SEND,
            REMOTE_APPLY, DS_DURABLE, REMOTE_COMMIT, GLOBALLY_VISIBLE,
        ):
            assert expected in names, "missing %s in %s" % (expected, names)
        # Phases appear in causal order.
        assert names.index(EXECUTE) < names.index(FAST_COMMIT)
        assert names.index(FAST_COMMIT) < names.index(DISKLOG_FLUSH)
        assert names.index(DISKLOG_FLUSH) <= names.index(PROPAGATE_SEND)
        assert names.index(PROPAGATE_SEND) < names.index(REMOTE_APPLY)
        assert names.index(REMOTE_APPLY) < names.index(DS_DURABLE)
        assert names.index(DS_DURABLE) < names.index(GLOBALLY_VISIBLE)
        # Remote events come from the other site.
        assert trace.first(REMOTE_APPLY).site == 1
        assert trace.commit_kind == "fast"

    def test_lag_ordering_and_registry(self, world):
        world.create_container("local", preferred_site=0)
        client = world.new_client(0)
        tid = _commit_one(world, client, client.new_id("local"))
        world.settle(2.0)

        trace = world.obs.tracer.get(tid)
        commit = trace.commit_event.t
        repl = trace.first(REMOTE_APPLY, 1).t - commit
        ds = trace.first(DS_DURABLE).t - commit
        vis = trace.first(GLOBALLY_VISIBLE).t - commit
        assert 0 < repl < ds  # applied remotely before all acks returned
        assert ds <= vis
        # The always-on histograms saw the same transaction.
        registry = world.obs.registry
        assert registry.histogram("server.ds_lag", site=0).count == 1
        assert registry.histogram("server.visibility_lag", site=0).count == 1
        assert registry.histogram("server.replication_lag", site=1).count == 1
        assert registry.histogram(
            "server.ds_lag", site=0
        ).sum == pytest.approx(ds)


class TestSlowCommitLifecycle:
    def test_prepare_commit_phases_and_lags(self, world):
        # Writing an object whose preferred site is remote forces the
        # 2PC slow-commit path (paper Fig 12).
        world.create_container("remote", preferred_site=1)
        client = world.new_client(0)
        tid = _commit_one(world, client, client.new_id("remote"))
        world.settle(2.0)

        trace = world.obs.tracer.get(tid)
        names = [e.name for e in trace.events]
        assert SLOW_COMMIT_PREPARE in names
        assert SLOW_COMMIT_COMMIT in names
        assert FAST_COMMIT not in names
        assert names.index(SLOW_COMMIT_PREPARE) < names.index(SLOW_COMMIT_COMMIT)
        assert trace.commit_kind == "slow"
        # Prepare waits for the participant's vote: at least one WAN
        # round trip before the commit phase.
        prepare = trace.first(SLOW_COMMIT_PREPARE)
        commit = trace.first(SLOW_COMMIT_COMMIT)
        assert commit.t - prepare.t > 0.010
        # Visibility lag >= ds-durability lag.
        assert trace.first(DS_DURABLE) is not None
        assert trace.first(GLOBALLY_VISIBLE).t >= trace.first(DS_DURABLE).t

    def test_lag_histograms_cover_remote_site(self, world):
        world.create_container("remote", preferred_site=1)
        client = world.new_client(0)
        _commit_one(world, client, client.new_id("remote"))
        world.settle(2.0)

        lags = world.metrics_snapshot()["histograms"]
        assert lags["server.replication_lag{site=1}"]["count"] == 1  # applied at site 1
        ds = lags["server.ds_lag{site=0}"]  # committed at site 0
        vis = lags["server.visibility_lag{site=0}"]
        assert ds["count"] == vis["count"] == 1
        assert vis["sum"] / vis["count"] >= ds["sum"] / ds["count"]
        text = format_site_observability(world)
        assert "vis lag" in text and "site" in text


class TestCacheMetrics:
    def test_hit_rate_reaches_registry(self, world):
        world.create_container("local", preferred_site=0)
        client = world.new_client(0)
        oid = client.new_id("local")
        _commit_one(world, client, oid)

        def read_twice():
            tx = client.start_tx()
            yield from client.read(tx, oid)
            yield from client.commit(tx)
            tx = client.start_tx()
            yield from client.read(tx, oid)
            yield from client.commit(tx)

        world.run_process(read_twice())
        registry = world.obs.registry
        misses = registry.counter("cache.misses", site=0).value
        hits = registry.counter("cache.hits", site=0).value
        # Commit warmed the cache, so both reads hit.
        assert hits == 2 and misses == 0
        assert world.storages[0].cache.stats.hits == 2
        assert world.storages[0].cache.stats.hit_rate == 1.0


class TestZeroOverheadWhenDisabled:
    def test_no_tracer_no_spans(self):
        world = Deployment(n_sites=2, seed=7)  # tracing off (default)
        assert world.obs.tracer is None
        for server in world.servers:
            assert server._tracer is None
        world.create_container("local", preferred_site=0)
        client = world.new_client(0)
        _commit_one(world, client, client.new_id("local"))
        world.settle(2.0)
        # Counters and lag histograms still work without tracing.
        registry = world.obs.registry
        assert registry.counter("server.commits", site=0).value == 1
        assert registry.histogram("server.visibility_lag", site=0).count == 1
        text = format_site_observability(world)
        assert "ds lag" in text
