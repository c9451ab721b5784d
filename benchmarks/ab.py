"""Interleaved A/B of one ledger workload: parent against this tree.

    python3 benchmarks/ab.py --parent <path-or-rev> --workload W [--seed N] [--pairs 10]

Runs ``benchmarks/ledger/run.py --workload W --seed N --seconds 10
--trace 0`` in both trees, one run at a time, alternating which side
goes first (this box drifts over minutes; a pair shares its drift), and
prints per end-to-end metric both medians and quartiles, wins / pairs,
whether every ``sim_*`` value was equal across all runs, and the
choosing-metrics §8 verdict: a gain is claimed only when the change wins
at least nine tenths of the pairs *and* the medians differ by more than
the parent's own quartile distance.

``--parent`` is a directory holding the parent's tree, or a git revision
of this repository, which is exported (``git archive``) into a temporary
directory for the duration of the run.  Each tree runs its *own* copy of
``benchmarks/ledger/``; a PR that claims a gain may not have edited it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "ledger", "run.py")


def export_revision(rev: str, into: str) -> None:
    """Unpack ``git archive rev`` of this repository into ``into``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def run_once(tree: str, workload: str, seed: Optional[int]) -> Dict[str, float]:
    """One untraced ledger run in ``tree`` (``seed`` None: the workload's
    default seed); its end-to-end metrics."""
    command = [sys.executable, RUN, "--workload", workload, "--seconds", "10", "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            "ledger run failed in %s (exit %d):\n%s\n%s"
            % (tree, done.returncode, done.stdout[-2000:], done.stderr[-2000:])
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("ledger run in %s reported failures: %s" % (tree, lines[-1]))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(contract: dict, parent: List[dict], change: List[dict]) -> bool:
    """Print the table; returns whether every sim-clock value was equal."""
    pairs = len(parent)
    print("%-22s %-8s %34s %34s %7s %8s  %s" % (
        "metric", "better", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "delta", "verdict (choosing-metrics §8)",
    ))  # fmt: skip
    all_equal = True
    for spec in contract["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        if not name.startswith("host_") and name != "setup_s":
            equal = len(set(a + b)) == 1
            all_equal = all_equal and equal
            print("%-22s %-8s %34.6f %34.6f %7s %8s  %s" % (
                name, spec["better"], statistics.median(a), statistics.median(b), "-", "-",
                "exact: equal in all %d runs" % (2 * pairs) if equal else "exact: MOVED",
            ))  # fmt: skip
            continue
        sign = -1.0 if lower else 1.0  # so that positive means better
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        gain = sign * (bm - am)
        resolved = abs(gain) > a3 - a1  # wider than the parent's own spread
        if pairs < 4:
            verdict = "too few pairs to judge"
        elif resolved and gain > 0 and wins >= 0.9 * pairs:
            verdict = "gain"
        elif resolved and gain < 0 and losses >= 0.9 * pairs:
            verdict = "LOSS, beyond bound" if -gain / am > spec["bound"] else "LOSS, within bound"
        else:
            verdict = "no resolved difference"
        print("%-22s %-8s %34s %34s %7s %+7.1f%%  %s" % (
            name, spec["better"],
            "%.3f [%.3f, %.3f]" % (am, a1, a3), "%.3f [%.3f, %.3f]" % (bm, b1, b3),
            "%d/%d" % (wins, pairs), 100.0 * (bm - am) / am, verdict,
        ))  # fmt: skip
    return all_equal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent tree (directory) or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)

    scratch = None
    parent_tree = args.parent
    if not os.path.isdir(parent_tree):
        scratch = parent_tree = tempfile.mkdtemp(prefix="ab-parent-")
        export_revision(args.parent, scratch)
    try:
        parent_runs: List[dict] = []
        change_runs: List[dict] = []
        for pair in range(args.pairs):
            order = [(parent_tree, parent_runs), (ROOT, change_runs)]
            if pair % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(run_once(tree, args.workload, args.seed))
            print("pair %2d: host_us_per_tx parent %.1f  change %.1f" % (
                pair + 1, parent_runs[-1]["host_us_per_tx"], change_runs[-1]["host_us_per_tx"],
            ), flush=True)  # fmt: skip
        print("\n%s, %s, %d interleaved pairs (parent: %s)" % (
            args.workload, "default seed" if args.seed is None else "seed %d" % args.seed,
            args.pairs, args.parent,
        ))  # fmt: skip
        equal = report(contract, parent_runs, change_runs)
        print("simulated-clock metrics equal across all runs: %s" % ("yes" if equal else "NO"))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
