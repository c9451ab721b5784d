"""Latency-budget tables from traces (critical-path attribution).

Re-runs the fig18 fast-commit and fig20 slow-commit scenarios with
``Deployment(tracing=True)`` and aggregates per-transaction
critical-path budgets (see ``repro.obs.critical_path``) into the
latency-budget table: where each millisecond of commit latency goes
(request/reply network hops, CPU admission, the 2PC vote round, lock
wait, the commit critical section, the WAL group-commit flush).

The budgets are exact, not sampled estimates: segment sums telescope to
the client-observed round trip, so the table's totals must reproduce the
client-side recorders' measurements -- this benchmark asserts agreement
within 1%.

Run as a script to write a JSONL run artifact for the ``python -m
repro.obs diff`` regression gate::

    python benchmarks/bench_latency_budget.py --out base.jsonl
    python benchmarks/bench_latency_budget.py --out slow.jsonl --flush-scale 3
    python -m repro.obs diff base.jsonl slow.jsonl   # exits 1

``--flush-scale`` multiplies the WAL flush latency, the injected
regression CI uses to prove the gate fails when latency moves.
"""

import argparse
import sys

from repro.bench import (
    DISK_PRESETS,
    LatencyRecorder,
    PAYLOAD,
    format_table,
    populate,
    run_closed_loop,
    walter_costs,
)
from repro.deployment import Deployment
from repro.obs import aggregate_budgets, format_budget_table, write_run_artifact
from repro.storage import FLUSH_EC2

#: Retain every trace: the budget table must cover the same transaction
#: population as the client-side latency recorders for the 1% check.
TRACE_CAPACITY = 65536


def run_fast(seed=18, flush_scale=1.0, small=False):
    """Fig18's EC2 cell (write-5 fast commits), traced."""
    world = Deployment(
        n_sites=2,
        costs=walter_costs("ec2"),
        flush_latency=DISK_PRESETS["ec2"] * flush_scale,
        seed=seed,
        tracing=True,
        trace_capacity=TRACE_CAPACITY,
    )
    keys = populate(world, n_keys=4000)
    commit_latencies = LatencyRecorder("fast-commit")

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
        world, factory,
        clients_per_site=8 if small else 24,
        warmup=0.1 if small else 0.2,
        measure=0.2 if small else 0.5,
        name="budget-fast",
    )
    return commit_latencies, world


def run_slow(seed=20, small=False):
    """Fig20's size-3 workload (VA-CA-IE slow commits), traced."""
    world = Deployment(
        n_sites=4, costs=walter_costs("ec2"), flush_latency=FLUSH_EC2,
        seed=seed, tracing=True, trace_capacity=TRACE_CAPACITY,
    )
    keys = populate(world, n_keys=1000)
    commit_latencies = LatencyRecorder("slow-commit")

    def factory(client, rng):
        def op():
            # fig20's op (slow_commit_tx_factory) with the clock started
            # at the commit call, matching the budget's client window.
            tx = client.start_tx()
            for site in range(3):
                oid = rng.choice(keys.by_site[site])
                yield from client.write(tx, oid, PAYLOAD)
            start = client.kernel.now
            status = yield from client.commit(tx)
            if status != "COMMITTED":
                raise RuntimeError("slow tx aborted")
            commit_latencies.record(client.kernel.now - start)
            return "slow-3"

        return op

    run_closed_loop(
        world, factory, sites=[0],
        clients_per_site=4 if small else 8,
        warmup=0.5 if small else 1.0,
        measure=1.5 if small else 3.0,
        name="budget-slow",
    )
    return commit_latencies, world


def budget_report(world, recorder, cls):
    """(table, budget-class dict) plus the measured-vs-attributed row."""
    table = aggregate_budgets(world.obs.tracer.traces(), client_only=True)
    budget = table.classes.get(cls)
    return table, budget


def test_latency_budget(once):
    fast, slow = once(lambda: (run_fast(), run_slow()))
    fast_rec, fast_world = fast
    slow_rec, slow_world = slow

    print()
    print("Latency budget: critical-path attribution (traces)")
    rows = []
    for cls, (rec, world) in (("fast", fast), ("slow", slow)):
        table, budget = budget_report(world, rec, cls)
        print()
        print(format_budget_table(table))
        assert budget is not None, "no %s-commit budgets traced" % cls
        # The recorder and the budget table saw the same committed
        # transactions (capacity retains every trace), and each budget's
        # segments telescope to the client round trip -- so the table's
        # mean must reproduce the measured mean within 1%.
        assert budget["count"] == len(rec), (cls, budget["count"], len(rec))
        measured = rec.mean
        attributed = budget["total"]["mean"]
        assert abs(attributed - measured) <= 0.01 * measured, (
            cls, attributed, measured,
        )
        seg_sum = sum(s["mean"] for s in budget["segments"].values())
        assert abs(seg_sum - attributed) <= 1e-9 + 1e-6 * attributed
        rows.append([
            cls, budget["count"], measured * 1e3, attributed * 1e3,
            abs(attributed - measured) / measured * 100.0,
        ])
    print()
    print(format_table(
        ["class", "n", "measured mean (ms)", "attributed (ms)", "gap (%)"], rows
    ))

    # Shape checks: fast commits are flush-dominated with no 2PC
    # segments; slow commits are dominated by the cross-site vote round.
    _, fast_budget = budget_report(fast_world, fast_rec, "fast")
    assert "2pc_votes" not in fast_budget["segments"]
    assert fast_budget["segments"]["wal_flush"]["share"] > 0.3
    _, slow_budget = budget_report(slow_world, slow_rec, "slow")
    assert slow_budget["segments"]["2pc_votes"]["share"] > 0.5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", metavar="PATH", help="write a JSONL run artifact")
    parser.add_argument("--seed", type=int, default=18)
    parser.add_argument(
        "--flush-scale", type=float, default=1.0,
        help="multiply WAL flush latency (inject a latency regression)",
    )
    parser.add_argument("--small", action="store_true", help="CI-sized run")
    args = parser.parse_args(argv)

    recorder, world = run_fast(
        seed=args.seed, flush_scale=args.flush_scale, small=args.small
    )
    table = aggregate_budgets(world.obs.tracer.traces(), client_only=True)
    print(format_budget_table(table))
    print(
        "measured client mean: %.3fms over %d commits"
        % (recorder.mean * 1e3, len(recorder))
    )
    if args.out:
        write_run_artifact(
            args.out, world, "latency-budget-fast",
            meta={"seed": args.seed, "flush_scale": args.flush_scale},
        )
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
