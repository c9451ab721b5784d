"""Interleaved A/B of ledger workloads: parent against this tree.

    python3 benchmarks/ab.py --parent <path-or-rev> --workload W|all
                             [--seed N | --held-out] [--pairs 10]
                             [--record]

Runs ``benchmarks/ledger/run.py --workload W --seed N --seconds 10
--trace 0`` in both trees, one run at a time, alternating which side
goes first (this box drifts over minutes; a pair shares its drift), and
prints per end-to-end metric both medians and quartiles, wins / pairs,
whether every ``sim_*`` value was equal across all runs, and the
choosing-metrics §8 verdict: a gain is claimed only when the change wins
at least nine tenths of the pairs *and* the medians differ by more than
the parent's own quartile distance.

``--workload all`` does that for each of the contract's workloads in
turn and ends with one table, a row per workload, that answers "is any
end-to-end metric worse" (choosing-metrics §6.5).  ``--held-out`` takes
each workload's held-out seed from ``benchmarks/ledger/ledger.json``.
The exit status is non-zero iff a simulated-clock value differs from the
parent's; host columns are printed, never gated.

``--parent`` is a directory holding the parent's tree, or a git revision
of this repository, which is exported (``git archive``) into a temporary
directory for the duration of the run.  Each tree runs its *own* copy of
``benchmarks/ledger/``; a PR that claims a gain may not have edited it.
Both trees are byte-compiled (``compileall`` over ``src/`` and
``benchmarks/``) before a workload's first pair, so neither side pays
for compiling modules the other loads from ``__pycache__``.

``--record`` appends two rows to ``BENCH_history.jsonl`` at the root of
the repository, the parent's and then this tree's: per workload the
median of every end-to-end metric, plus the tree's ``src/`` line count
and collected test count.  The parent (a revision, for ``--record``)
row carries its commit and the PR number of its subject line; this
tree's row carries the number of the ``# ISSUE N`` title of its
``ISSUE.md`` and its parent's commit (its own commit is the one that
adds the row).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "ledger", "run.py")
HISTORY = os.path.join(ROOT, "BENCH_history.jsonl")


def export_revision(rev: str, into: str) -> None:
    """Unpack ``git archive rev`` of this repository into ``into``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def tree_size(tree: str) -> Dict[str, int]:
    """``src/`` physical lines and collected tests: the two numbers CI's
    tree-size step prints."""
    lines = 0
    for folder, _dirs, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    lines += handle.read().count(b"\n")
    collect = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-o", "addopts="],
        cwd=tree, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH="src"),
    )  # fmt: skip
    found = re.search(r"(\d+) tests? collected", collect.stdout)
    if found is None:
        raise SystemExit("test collection failed in %s:\n%s" % (tree, collect.stdout[-2000:]))
    return {"src_lines": lines, "tests": int(found.group(1))}


def issue_number() -> int:
    """This tree's PR number: the ``N`` of ``ISSUE.md``'s ``# ISSUE N`` title."""
    with open(os.path.join(ROOT, "ISSUE.md")) as handle:
        found = re.match(r"# ISSUE (\d+)\b", handle.readline())
    if found is None:
        raise SystemExit("ISSUE.md does not open with a '# ISSUE N' title")
    return int(found.group(1))


def record(rows: List[dict]) -> None:
    with open(HISTORY, "a") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print("appended %d rows to %s" % (len(rows), HISTORY))


def prime(tree: str) -> None:
    """Byte-compile ``tree``'s ``src/`` and ``benchmarks/``.  With
    ``PYTHONDONTWRITEBYTECODE`` set, an import writes no ``.pyc``, so a
    fresh export would recompile every module on every run while a
    working tree loads its ``__pycache__``: ``setup_s`` would compare
    compile time, not the change."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "benchmarks"],
        cwd=tree, check=True, capture_output=True,
    )  # fmt: skip


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


#: Summary-cell marks: worse beyond the metric's bound; unresolved -- the
#: parent's own quartile distance exceeds the bound and not every change
#: run beat every parent run.
WORSE, UNRESOLVED = "!", "?"


def is_exact(name: str) -> bool:
    """Simulated-clock metrics: one value per seed, no run-to-run spread."""
    return not name.startswith("host_") and name != "setup_s"


def cell(spec: dict, parent: List[float], change: List[float]) -> str:
    """One metric's summary cell: the signed change of the median, marked
    ``!`` when it is worse than the parent's by more than the metric's
    bound, and, for a host metric, ``?`` when the parent's own quartile
    distance exceeds the bound and not every change run beat every
    parent run.  An exact metric that did not move is ``=``."""
    sign = -1.0 if spec["better"] == "lower" else 1.0  # positive means better
    (a1, am, a3), bm = quartiles(parent), statistics.median(change)
    if is_exact(spec["name"]) and len(set(parent + change)) == 1:
        return "="
    flag = ""
    if -sign * (bm - am) / am > spec["bound"]:
        flag = WORSE
    elif not is_exact(spec["name"]) and (a3 - a1) / am > spec["bound"] and not all(
        sign * (y - x) > 0 for x in parent for y in change
    ):
        flag = UNRESOLVED
    return "%+.2f%%%s" % (100.0 * (bm - am) / am, flag)


def report(contract: dict, parent: List[dict], change: List[dict]) -> Dict[str, str]:
    """Print one workload's table; returns per metric its summary cell
    (:func:`cell`)."""
    pairs = len(parent)
    print("%-22s %-8s %34s %34s %7s %8s  %s" % (
        "metric", "better", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "delta", "verdict (choosing-metrics §8)",
    ))  # fmt: skip
    cells: Dict[str, str] = {}
    for spec in contract["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        cells[name] = cell(spec, a, b)
        if is_exact(name):
            equal = cells[name] == "="
            print("%-22s %-8s %34.6f %34.6f %7s %8s  %s" % (
                name, spec["better"], statistics.median(a), statistics.median(b), "-", "-",
                "exact: equal in all %d runs" % (2 * pairs) if equal else "exact: MOVED " + cells[name],
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
    return cells


def run_pairs(parent_tree: str, workload: str, seed: Optional[int], pairs: int):
    """``pairs`` alternating parent / change runs of one workload, both
    trees primed (:func:`prime`) first."""
    prime(parent_tree)
    prime(ROOT)
    parent_runs: List[dict] = []
    change_runs: List[dict] = []
    for pair in range(pairs):
        order = [(parent_tree, parent_runs), (ROOT, change_runs)]
        if pair % 2:
            order.reverse()
        for tree, runs in order:
            runs.append(run_once(tree, workload, seed))
        print("%s pair %2d: host_us_per_tx parent %.1f  change %.1f" % (
            workload, pair + 1, parent_runs[-1]["host_us_per_tx"], change_runs[-1]["host_us_per_tx"],
        ), flush=True)  # fmt: skip
    return parent_runs, change_runs


def print_summary(contract: dict, table: Dict[str, Dict[str, str]], pairs: int) -> None:
    """The no-regression table of ``--workload all``: a row per workload,
    a column per end-to-end metric, ``report``'s cells."""
    names = [spec["name"] for spec in contract["end_to_end"]]
    print("\nchange vs parent, median of %d pair(s); an exact metric that did not move: =" % pairs)
    print("%-24s" % "workload" + "".join("%21s" % name for name in names))
    for workload, cells in table.items():
        print("%-24s" % workload + "".join("%21s" % cells[name] for name in names))
    cells = [cell for row in table.values() for cell in row.values()]
    worse = sum(cell.endswith(WORSE) for cell in cells)
    unresolved = sum(cell.endswith(UNRESOLVED) for cell in cells)
    print("no end-to-end metric worse beyond its bound: %s (%s worse: %d; %s unresolved, the"
          " parent's spread is wider than the bound: %d)"
          % ("NO" if worse else "yes", WORSE, worse, UNRESOLVED, unresolved))  # fmt: skip


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent tree (directory) or git revision")
    parser.add_argument("--workload", required=True, help="a contract workload, or 'all'")
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, help="default: the workload's default seed")
    seeds.add_argument("--held-out", action="store_true", help="each workload's held-out seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--record", action="store_true", help="append medians to BENCH_history.jsonl")
    args = parser.parse_args()
    if args.record and os.path.isdir(args.parent):
        parser.error("--record needs a parent revision, not a directory")
    pr = issue_number() if args.record else None

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    workloads = [args.workload]
    if args.workload == "all":
        workloads = [entry["name"] for entry in contract["workloads"]]
    held_out = {}
    if args.held_out:
        with open(os.path.join(ROOT, "benchmarks", "ledger", "ledger.json")) as handle:
            ledger = json.load(handle)["workloads"]
        held_out = {name: ledger[name]["held_out_seed"] for name in workloads}

    scratch = None
    parent_tree = args.parent
    if not os.path.isdir(parent_tree):
        scratch = parent_tree = tempfile.mkdtemp(prefix="ab-parent-")
        export_revision(args.parent, scratch)
    try:
        table: Dict[str, Dict[str, str]] = {}
        medians: Dict[str, Dict[str, dict]] = {"parent": {}, "change": {}}
        for workload in workloads:
            seed = held_out.get(workload, args.seed)
            parent_runs, change_runs = run_pairs(parent_tree, workload, seed, args.pairs)
            for side, runs in (("parent", parent_runs), ("change", change_runs)):
                medians[side][workload] = {
                    spec["name"]: statistics.median(run[spec["name"]] for run in runs)
                    for spec in contract["end_to_end"]
                }
            print("\n%s, %s, %d interleaved pairs (parent: %s)" % (
                workload, "default seed" if seed is None else "seed %d" % seed,
                args.pairs, args.parent,
            ))  # fmt: skip
            table[workload] = report(contract, parent_runs, change_runs)
            print(flush=True)
        if len(workloads) > 1:
            print_summary(contract, table, args.pairs)
        equal = all(
            row[name] == "=" for row in table.values() for name in row if is_exact(name)
        )
        print("simulated-clock metrics equal across all runs: %s" % ("yes" if equal else "NO"))
        if args.record:
            commit = git("rev-parse", args.parent)
            subject = re.match(r"PR (\d+)\b", git("log", "-1", "--format=%s", commit))
            label = "held-out" if args.held_out else args.seed
            common = {"seed": "default" if label is None else label, "pairs": args.pairs}
            record([
                dict(common, commit=commit, pr=subject and int(subject.group(1)),
                     medians=medians["parent"], **tree_size(parent_tree)),
                dict(common, commit=None, parent=commit, pr=pr,
                     medians=medians["change"], **tree_size(ROOT)),
            ])  # fmt: skip
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
