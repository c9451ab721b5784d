"""Figure 18: fast-commit latency CDF on EC2 and the private cluster.

Write-only transactions of 5 objects at a moderate load (~70% of maximal
throughput); the commit latency is the time from issuing the commit RPC
to its acknowledgement.  Three disk configurations:

* EC2 instance storage,
* private cluster with write caching enabled,
* private cluster with write caching disabled.

Paper shape: no cross-site coordination, so latency is dominated by
server queueing and the commit-log flush; on EC2 the 99th percentile is
~20 ms and the 99.9th ~27 ms; with write caching off the 99.9th stays
under 90 ms.
"""

import random

from repro.bench import (
    DISK_PRESETS,
    LatencyRecorder,
    PAYLOAD,
    format_cdf,
    format_metric_histogram,
    format_site_observability,
    format_table,
    populate,
    run_closed_loop,
    walter_costs,
)
from repro.deployment import Deployment
from repro.obs import aggregate_budgets, format_budget_table

CONFIGS = [
    ("ec2", "ec2", DISK_PRESETS["ec2"]),
    ("write_caching_on", "private", DISK_PRESETS["write_caching_on"]),
    ("write_caching_off", "private", DISK_PRESETS["write_caching_off"]),
]


def measure_commit_latency(platform, flush_latency, clients_per_site, tracing=False):
    world = Deployment(
        n_sites=2, costs=walter_costs(platform), flush_latency=flush_latency, seed=18,
        tracing=tracing,
    )
    keys = populate(world, n_keys=4000)
    commit_latencies = LatencyRecorder("commit")

    def factory(client, rng):
        site = client.site.id

        def op():
            tx = client.start_tx()
            for _ in range(5):
                oid = rng.choice(keys.by_site[site])
                yield from client.write(tx, oid, PAYLOAD)
            start = client.kernel.now
            status = yield from client.commit(tx)
            if status == "COMMITTED":
                commit_latencies.record(client.kernel.now - start)
            return "write5"

        return op

    run_closed_loop(
        world, factory, clients_per_site=clients_per_site, warmup=0.2, measure=0.6,
        name="fig18-%s" % platform,
    )
    return commit_latencies, world


def run_all():
    results = {}
    worlds = {}
    for name, platform, flush in CONFIGS:
        # Saturation for write-5 is ~60 clients/site; ~70% load below it.
        # The EC2 cell runs traced for the latency-budget
        # table below; tracing is recording-only, so the measured
        # latencies are unaffected.
        results[name], worlds[name] = measure_commit_latency(
            platform, flush, clients_per_site=40, tracing=name == "ec2"
        )
    return results, worlds


def test_fig18_fast_commit_latency(once):
    results, worlds = once(run_all)

    print()
    print("Figure 18: fast commit latency (write-only tx, 5 objects)")
    rows = []
    for name, _platform, flush in CONFIGS:
        rec = results[name]
        rows.append([name, flush * 1000, rec.p50 * 1000, rec.p99 * 1000, rec.p999 * 1000])
    print(format_table(["config", "flush (ms)", "p50 (ms)", "p99 (ms)", "p99.9 (ms)"], rows))
    print()
    print(format_cdf(results["ec2"], n_points=10))
    # Per-site decomposition from the repro.obs layer (counters only; no
    # tracing overhead): commit-latency histogram, replication lag,
    # ds-durability lag, visibility lag, cache hit-rate.
    ec2_world = worlds["ec2"]
    print()
    print(format_site_observability(ec2_world))
    print()
    print(
        format_metric_histogram(
            ec2_world.obs.registry.histogram("server.commit_latency", site=0)
        )
    )
    # Critical-path attribution from the traces (retained window):
    # where the commit milliseconds go.  See benchmarks/
    # bench_latency_budget.py for the exactness (within-1%) assertions.
    budget_table = aggregate_budgets(ec2_world.obs.tracer.traces(), client_only=True)
    print()
    print(format_budget_table(budget_table))
    fast_budget = budget_table.classes.get("fast")
    assert fast_budget is not None and fast_budget["count"] > 100
    # No cross-site coordination on the fast path.
    assert "2pc_votes" not in fast_budget["segments"]
    # The flush dominates the fast-commit budget (paper: latency is
    # "dominated by ... the commit-log flush").
    assert fast_budget["segments"]["wal_flush"]["share"] > 0.3

    ec2 = results["ec2"]
    on = results["write_caching_on"]
    off = results["write_caching_off"]

    # The obs-layer commit histogram saw the same population the
    # client-side recorder did (server-side, so >= the recorder's count
    # includes nothing extra for write-only committed tx).
    server_hist = ec2_world.obs.registry.histogram("server.commit_latency", site=0)
    assert server_hist.count > 0
    for site in range(ec2_world.n_sites):
        repl = ec2_world.obs.registry.histogram("server.replication_lag", site=site)
        assert repl.count > 0  # both sites applied the other's commits
        hits = ec2_world.obs.registry.counter("cache.hits", site=site).value
        misses = ec2_world.obs.registry.counter("cache.misses", site=site).value
        assert hits + misses == 0  # write-only workload never reads
    for rec in (ec2, on, off):
        assert len(rec) > 500

    # No cross-site coordination: well under one WAN round trip at p50.
    assert ec2.p50 < 0.041
    # Paper: EC2 p99 ~20 ms, p99.9 ~27 ms.
    assert ec2.p99 < 0.030
    assert ec2.p999 < 0.050
    # Write-caching-off is the slowest configuration; p99.9 < 90 ms.
    assert off.p50 > on.p50
    assert off.p999 < 0.090
    # Latency floor: at least one log flush.
    assert on.min >= 0.001
    assert off.min >= 0.008
