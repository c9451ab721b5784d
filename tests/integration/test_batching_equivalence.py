"""Batch sizes are behavior-transparent (DESIGN.md §14): batching is the
only wire, so what still varies is its two sizes.  The same workload run
at the smallest sizes -- ``PropagationMixin.MAX_BATCH = 1`` and
``SiteStorage.WAL_WINDOW = 0`` patched in, every record its own cast, no
group-commit window -- and at the constants
must agree on everything that is *not* timing: commit outcomes, the
final visible value of every object at every site, lag-report
completeness, and the PSI verdict of the recorded trace.

The workloads here are count-bound and conflict-free by construction
(each client writes only its own keys), so both arms perform identical
logical work, every transaction commits in both, and the converged state
comparison is exact.  Conflict outcomes under contention are
deliberately *not* compared one-to-one -- batch sizes legitimately shift
timing, and which racer aborts is schedule-dependent; the chaos suite
covers that regime against the PSI oracles instead.

Hypothesis drives the workload shape (seed, keys, transaction mix)
across the deployment grid the issue names: shards 1 and 4, full and
partial replication.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deployment import Deployment
from repro.obs import collect_run, diff_outcomes
from repro.server.propagation import PropagationMixin
from repro.spec import check_trace
from repro.storage import FLUSH_MEMORY, SiteStorage


@contextlib.contextmanager
def smallest_sizes():
    """Patch in the smallest batch sizes the wire accepts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PropagationMixin, "MAX_BATCH", 1)
        patch.setattr(SiteStorage, "WAL_WINDOW", 0.0)
        yield


def _run_arm(seed, shards, replication, n_base_sites=2):
    """One arm: per-client private-key writers plus shared readers, run
    to completion, then settled until propagation drains everywhere."""
    world = Deployment(
        n_sites=n_base_sites,
        flush_latency=FLUSH_MEMORY,
        seed=seed,
        trace=True,
        shards=shards,
        replication=replication,
    )
    rng = random.Random(seed)
    n_logical = world.n_sites
    containers = [
        world.create_container("c%d" % s, preferred_site=s)
        for s in range(n_logical)
    ]
    # Each (site, client) owns a private slice of keys: no write-write
    # conflicts, so every commit succeeds in both arms.
    clients_per_site = 2
    txs_per_client = rng.randint(4, 8)
    own = {}
    shared = []
    for s in range(n_logical):
        for c in range(clients_per_site):
            own[(s, c)] = [containers[s].new_id() for _ in range(3)]
        shared.append(containers[s].new_id())
    world.preload({oid: b"init" for oid in shared})
    statuses = []

    def driver(client, s, c, crng):
        for i in range(txs_per_client):
            yield client.kernel.timeout(crng.random() * 0.02)
            tx = client.start_tx()
            yield from client.read(tx, crng.choice(shared))
            oid = crng.choice(own[(s, c)])
            value = ("v-%d-%d-%d" % (s, c, i)).encode()
            yield from client.write(tx, oid, value)
            status = yield from client.commit(tx)
            statuses.append(status)

    procs = []
    for s in range(n_logical):
        for c in range(clients_per_site):
            client = world.new_client(s)
            crng = random.Random(seed * 7919 + s * 101 + c)
            procs.append(
                world.kernel.spawn(driver(client, s, c, crng))
            )
    world.run(until=60.0)
    assert all(p.done for p in procs)
    world.settle(5.0)

    # Final visible reads: every object from every logical site.
    all_oids = sorted(
        [oid for oids in own.values() for oid in oids] + shared,
        key=lambda o: (o.container, o.local),
    )
    reads = {}

    def read_all(client, site):
        for oid in all_oids:
            container = world.config.container(oid.container)
            if not container.replicated_at(site):
                continue  # partial replication: no local copy to compare
            tx = client.start_tx()
            value = yield from client.read(tx, oid)
            yield from client.commit(tx)
            reads[(site, oid.container, oid.local)] = value

    for s in range(n_logical):
        world.run_process(read_all(world.new_client(s), s))

    violations = check_trace(world.trace)
    assert violations == [], "\n".join(str(v) for v in violations)
    lag = world.obs.registry
    applied = tuple(
        lag.counter("server.remote_applied", site=s).value
        for s in range(n_logical)
    )
    base = world.base_site_of
    wan_bytes = sum(
        counter.value
        for counter in lag.counters()
        if counter.name == "net.bytes"
        and len({base(int(v)) for k, v in counter.labels if k in ("site", "dst")}) == 2
    )
    return {
        "artifact": collect_run(world, "batch-sizes"),
        "wan_bytes": wan_bytes,
        "statuses": tuple(sorted(statuses)),
        "reads": reads,
        "applied": applied,
        "commits": tuple(
            lag.counter("server.commits", site=s).value
            for s in range(n_logical)
        ),
    }


def _assert_equivalent(seed, shards, replication):
    # Partial replication needs more base sites than the replication
    # factor, or every shard group is stored everywhere anyway.
    n_base = 3 if replication is not None else 2
    with smallest_sizes():
        small = _run_arm(seed, shards, replication, n_base_sites=n_base)
    default = _run_arm(seed, shards, replication, n_base_sites=n_base)
    assert set(small["statuses"]) == {"COMMITTED"}
    assert default["statuses"] == small["statuses"]
    assert default["reads"] == small["reads"]
    # Lag-report completeness: every commit was applied at every other
    # replica in both arms (the *values* of the lags are timing and may
    # differ; the sample counts may not).
    assert default["applied"] == small["applied"]
    assert default["commits"] == small["commits"]
    # The run artifacts agree on every outcome counter (what
    # ``python -m repro.obs diff --outcomes-only`` checks).
    mismatches, _notes = diff_outcomes(small["artifact"], default["artifact"])
    assert mismatches == []
    # What bigger batches buy on the simulated clock: fewer bytes between
    # data centers for the same logical work.
    assert default["wan_bytes"] < small["wan_bytes"]


class TestBatchingEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=6, deadline=None)
    def test_unsharded_full_replication(self, seed):
        _assert_equivalent(seed, shards=1, replication=None)

    @given(st.integers(0, 10_000))
    @settings(max_examples=4, deadline=None)
    def test_sharded_partial_replication(self, seed):
        _assert_equivalent(seed, shards=4, replication=2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=3, deadline=None)
    def test_sharded_full_replication(self, seed):
        _assert_equivalent(seed, shards=4, replication=None)

    @given(st.integers(0, 10_000))
    @settings(max_examples=3, deadline=None)
    def test_unsharded_partial_replication(self, seed):
        _assert_equivalent(seed, shards=1, replication=2)

    def test_contended_runs_stay_psi_in_both_arms(self):
        # Contention regime: identical outcomes are not promised, but
        # both arms must satisfy PSI on their own traces.
        for sizes in (smallest_sizes, contextlib.nullcontext):
            with sizes():
                self._contended_run()

    def _contended_run(self):
        world = Deployment(
            n_sites=2, flush_latency=FLUSH_MEMORY, seed=77, trace=True,
        )
        world.create_container("hot", preferred_site=0)
        oid = world.config.container("hot").new_id()
        statuses = []

        def hammer(client, crng):
            for _ in range(10):
                yield client.kernel.timeout(crng.random() * 0.02)
                tx = client.start_tx()
                yield from client.read(tx, oid)
                yield from client.write(
                    tx, oid, ("%s" % crng.random()).encode()
                )
                status = yield from client.commit(tx)
                statuses.append(status)

        for site in range(2):
            for c in range(2):
                world.kernel.spawn(
                    hammer(
                        world.new_client(site),
                        random.Random(site * 13 + c),
                    )
                )
        world.run(until=30.0)
        world.settle(5.0)
        assert "COMMITTED" in statuses
        violations = check_trace(world.trace)
        assert violations == [], "\n".join(str(v) for v in violations)
