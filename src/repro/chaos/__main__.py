"""CLI for the chaos harness.

Run a batch of seeded chaos experiments and print every seed's verdict
line (a census: the batch does not stop at a failure); exit non-zero if
any seed failed.  A single failing seed (``--runs 1``) is also shrunk,
and its reproduction artifact (seed + shrunk schedule as canonical
JSON) is written next to the working directory.

With ``--corpus DIR`` it instead replays every stored reproduction
artifact (``seed-*.json``) in that directory and verifies the run still
passes every oracle -- including the ``no-leaked-locks`` /
``no-stuck-transactions`` quiescence oracles -- with a byte-identical
verdict.  CI runs this over ``tests/chaos/seeds``.

Examples::

    PYTHONPATH=src python -m repro.chaos --seed 1
    PYTHONPATH=src python -m repro.chaos --seed 100 --runs 25 --budget 8
    PYTHONPATH=src python -m repro.chaos --seed 1 --bug skip_resume_propagation
    PYTHONPATH=src python -m repro.chaos --protocol consus --seed 0 --runs 300
    PYTHONPATH=src python -m repro.chaos --corpus tests/chaos/seeds
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import replace

from .harness import ChaosConfig, ReproArtifact, run_chaos
from .schedule import canonical_json
from .shrinker import shrink_schedule


def replay_corpus(directory: str) -> int:
    """Replay every stored artifact; fail on any oracle violation or
    verdict drift (mismatched bytes mean determinism broke)."""
    paths = sorted(glob.glob(os.path.join(directory, "seed-*.json")))
    if not paths:
        print("no seed-*.json artifacts under %s" % directory, file=sys.stderr)
        return 1
    failed = 0
    for path in paths:
        artifact = ReproArtifact.load(path)
        result = artifact.replay()
        fresh = result.verdict_obj()
        ok = result.passed and fresh == artifact.verdict
        line = "%s: %s" % (os.path.basename(path), "PASS" if ok else "FAIL")
        if artifact.config.protocol is None:
            servers = result.world.servers
            line += "  locks=%d active_txs=%d" % (
                sum(len(s.locked) for s in servers),
                sum(len(s._txs) for s in servers),
            )
        print(line)
        if not ok:
            failed += 1
            for violation in result.violations:
                print("  %s" % violation)
            if fresh != artifact.verdict:
                print("  verdict drift:\n    stored: %s\n    fresh:  %s"
                      % (canonical_json(artifact.verdict), canonical_json(fresh)))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded fault-injection runs checked against the PSI model",
    )
    parser.add_argument("--seed", type=int, default=1, help="first seed (default 1)")
    parser.add_argument(
        "--runs", type=int, default=1,
        help="number of seeds to run; each prints its verdict (only --runs 1 shrinks)",
    )
    parser.add_argument("--sites", type=int, default=3, help="sites in the deployment")
    parser.add_argument(
        "--shards", type=int, default=1,
        help="keyspace shards per site (each a full logical site)",
    )
    parser.add_argument(
        "--replication", type=int, default=None,
        help="base sites replicating each shard group (default: all)",
    )
    parser.add_argument("--budget", type=int, default=6, help="fault budget per schedule")
    parser.add_argument("--horizon", type=float, default=8.0, help="fault window (sim s)")
    parser.add_argument(
        "--bug",
        default=None,
        help="plant a deliberate bug (harness self-test); see RecoveryMixin.CHAOS_BUGS",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="failure artifact path (default chaos-repro-<seed>.json)",
    )
    parser.add_argument(
        "--shrink-runs", type=int, default=48, help="max candidate runs while shrinking"
    )
    parser.add_argument(
        "--corpus",
        default=None,
        help="replay every seed-*.json artifact in this directory instead "
        "of generating runs; fail on any violation or verdict drift",
    )
    parser.add_argument(
        "--protocol",
        default=None,
        help="run against this registry backend (walter, si, nmsi, consus) "
        "instead of the full Walter deployment; the run takes partitions and "
        "loss bursts and is judged by the protocol's own oracle + lattice report",
    )
    args = parser.parse_args(argv)

    if args.corpus is not None:
        return replay_corpus(args.corpus)

    try:
        base = ChaosConfig(
            seed=args.seed,
            n_sites=args.sites,
            fault_budget=args.budget,
            horizon=args.horizon,
            bug=args.bug,
            shards=args.shards,
            replication=args.replication,
            protocol=args.protocol,
        )
    except ValueError as exc:
        parser.error(str(exc))
    failed = 0
    for seed in range(args.seed, args.seed + args.runs):
        config = replace(base, seed=seed)
        result = run_chaos(config)
        tally = result.outcomes
        print(
            "seed %d: %s  faults=%d committed=%d aborted=%d errors=%d  t=%.2fs"
            % (
                seed,
                "PASS" if result.passed else "FAIL",
                len(result.applied_faults),
                tally.get("COMMITTED", 0),
                tally.get("ABORTED", 0),
                tally.get("ERROR", 0),
                result.end_time,
            )
        )
        if result.passed:
            continue
        failed += 1
        for violation in result.violations:
            print("  %s" % violation)
        if args.runs > 1:
            continue
        print("shrinking schedule (%d events)..." % len(result.schedule))
        report = shrink_schedule(config, result.schedule, max_runs=args.shrink_runs)
        print(
            "  %d -> %d events in %d runs"
            % (report.initial_events, report.final_events, report.runs)
        )
        out = args.out or ("chaos-repro-%d.json" % seed)
        report.result.artifact().save(out)
        print("  wrote %s  (replay: ReproArtifact.load(path).replay())" % out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
