"""Disaster-safe durability is one prefix per origin, and history GC
keeps what other sites are served from.

A record is DS-durable once every other active site's ACK frontier
covers it, so an origin marks its records in seqno order, also when a
site's deactivation lifts the floor; and a site whose GC runs through
the whole chaos schedule still converges, because GC keeps commit
records."""

from unittest import mock

import pytest

from repro.chaos import ChaosConfig, harness, run_chaos
from repro.obs import trace as span


def test_ds_durable_spans_extend_a_prefix_per_origin():
    """Each DS-DURABLE span names the next record of its origin's
    prefix: every lower seqno from the first one marked was marked
    before it.  (A seqno can be marked twice -- a no-op sealing a seqno
    that site removal abandoned, or a record a restarted origin
    resumes -- which repeats part of the prefix without breaking it.)
    Seed 5 deactivates a site while site 0 waits on its ACKs; a floor
    that rose without an ACK once marked <0:9> before <0:7> and
    <0:8>."""
    result = run_chaos(ChaosConfig(seed=5), monitor=True)
    assert result.passed
    txs = result.world.trace.transactions
    marked = {}
    skipped = []
    for event in result.world.obs.tracer.events():
        if event.name != span.DS_DURABLE:
            continue
        version = txs[event.tid].version
        seen = marked.setdefault(version.site, set())
        below = set(range(min(seen, default=version.seqno), version.seqno))
        if below - seen:
            skipped.append((version, sorted(below - seen)))
        seen.add(version.seqno)
    assert len(marked[0]) >= 9
    assert skipped == []


class GCDeployment(harness.Deployment):
    """Every server, replacements included, runs history GC."""

    def _make_server(self, site, takeover=False):
        server = super()._make_server(site, takeover)
        server.start_gc(0.5)
        return server


@pytest.mark.parametrize(
    "config",
    [ChaosConfig(seed=5), ChaosConfig(seed=5, shards=2, replication=2)],
    ids=["default", "sharded"],
)
def test_chaos_passes_with_gc_on_every_server(config):
    with mock.patch.object(harness, "Deployment", GCDeployment):
        result = run_chaos(config)
    assert result.passed, result.verdict_json()
    assert sum(server.stats.gc_removed for server in result.world.servers) > 0
