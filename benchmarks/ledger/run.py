"""The ledger benchmark: one command, every metric by name.

Driver contract (see ``BENCHMARK.json`` at the repo root)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

prints a table of every metric with its unit, checks outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exit code is non-zero when a check fails.

Other modes::

    run.py                         all six workloads, untraced, default seeds
    run.py --traced [--json OUT]   the per-layer set; OUT gets the bucket tables
    run.py --workload micro        the 15 micro.* layer rates alone
    run.py --agree                 untraced set twice; differences beside bounds
    run.py --check                 output checks only (PSI, read-back, 240 chaos verdicts)

**Run model.**  Every pass is a fresh child process (``onepass.py``),
strictly one at a time, ``PYTHONHASHSEED=0``.  An untraced run is two
timed passes plus one check pass; simulated metrics come from pass 1 and
must be identical in pass 2 (the determinism self-check), host time is
min-merged slice by slice across the passes (the work is deterministic,
so noise is one-sided), ``setup_s`` is the median of the passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ONEPASS = os.path.join(HERE, "onepass.py")

sys.path.insert(0, HERE)
from layers import LAYERS  # noqa: E402 - needs HERE on the path

TIMED_PASSES = 2
#: Sim-clock results a same-seed pass must reproduce to the last digit.
EXACT_SECTIONS = ("sim", "counts", "tx")


class PassFailed(RuntimeError):
    """A child pass exited non-zero or printed no result."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_ledger() -> dict:
    with open(os.path.join(HERE, "ledger.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def spawn_pass(workload: str, seed: int, seconds: float, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, ONEPASS,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(float(seconds)),
        "--mode", mode, "--t0", repr(time.time()),
    ]  # fmt: skip
    started = time.time()
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PassFailed(
            "%s pass of %s (seed %d) exited %d:\n%s"
            % (mode, workload, seed, done.returncode, done.stderr[-2000:])
        )
    result = json.loads(lines[-1])
    result["pass_wall_s"] = time.time() - started
    return result


def window_cpu_s(passes: List[dict]) -> float:
    """Per slice, the cheapest pass; summed.  Slice *i* is the same
    deterministic work in every pass, so a burst of interference has to
    hit the same slice in all passes to get through."""
    return sum(min(column) for column in zip(*(p["host"]["slice_cpu_s"] for p in passes)))


def exact_differences(a: dict, b: dict) -> List[str]:
    return [
        "%s.%s: %r != %r" % (section, key, a[section].get(key), b[section].get(key))
        for section in EXACT_SECTIONS
        for key in sorted(set(a[section]) | set(b[section]))
        if a[section].get(key) != b[section].get(key)
    ]


class Outcome:
    """Metrics of one run plus what the output checks found."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}
        self.artifact: Dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return not self.problems


def _count_operations(outcome: Outcome, workload: str, first: dict) -> None:
    """An operation is a transaction; on ``chaos_recovery`` it is one
    chaos run judged by its oracles (faults make transactions error by
    design).  OCC aborts are answers, not failures: they lower
    ``committed_share``."""
    tx = first["tx"]
    if workload == "chaos_recovery":
        outcome.attempted, outcome.failed = tx["verdicts"], tx["verdicts_failed"]
    else:
        outcome.attempted, outcome.failed = tx["attempted"], tx["errored"]
    if outcome.failed:
        outcome.problems.append(
            "%d of %d operations failed (%s)" % (outcome.failed, outcome.attempted, tx["first_error"])
        )
    if tx["committed"] <= 0:
        outcome.problems.append("no transaction committed")
    outcome.notes.update(
        tx_attempted=tx["attempted"], tx_committed=tx["committed"], tx_aborted=tx["aborted"],
        tx_errored=tx["errored"], update_samples=tx["update_samples"], read_samples=tx["read_samples"],
    )  # fmt: skip


def untraced_outcome(workload: str, passes: List[dict], check: Optional[dict]) -> Outcome:
    outcome = Outcome()
    first = passes[0]
    _count_operations(outcome, workload, first)
    for other in passes[1:]:
        for difference in exact_differences(first, other)[:5]:
            outcome.problems.append("same-seed passes differ: " + difference)
    if check is not None and not check["check"]["ok"]:
        outcome.problems.append("output check failed: %s" % json.dumps(check["check"])[:600])
    committed = first["tx"]["committed"]
    outcome.metrics.update(first["sim"])
    outcome.metrics.update(
        host_us_per_tx=window_cpu_s(passes) / max(1, committed) * 1e6,
        host_peak_rss_mb=min(p["host"]["rss_mb"] for p in passes),
        setup_s=statistics.median(p["host"]["setup_s"] for p in passes),
    )
    outcome.notes["pass_wall_s"] = [round(p["pass_wall_s"], 2) for p in passes + [check] if p]
    outcome.artifact = {"passes": passes, "check": check and check["check"]}
    return outcome


def run_untraced(workload: str, seed: int, seconds: float) -> Outcome:
    passes = [spawn_pass(workload, seed, seconds, "plain") for _ in range(TIMED_PASSES)]
    # Every timed chaos run is already judged by all its oracles.
    check = None if workload == "chaos_recovery" else spawn_pass(workload, seed, seconds, "check")
    return untraced_outcome(workload, passes, check)


def traced_outcome(
    workload: str, plain: dict, profile: dict, deep: dict, micro: dict, parallel: Optional[dict]
) -> Outcome:
    outcome = Outcome()
    _count_operations(outcome, workload, plain)
    # Profiling and tracing are recording-only: same simulated results.
    for label, other in (("profiled", profile), ("deep-traced", deep)):
        for difference in exact_differences(plain, other)[:5]:
            outcome.problems.append("%s pass differs from plain: %s" % (label, difference))
    table = profile["host"]["layers"]
    for layer in LAYERS:
        for field in ("self_s", "calls", "calls_in"):
            outcome.metrics["%s.%s" % (layer, field)] = table["layers"][layer][field]
    plain_cpu = window_cpu_s([plain])
    outcome.metrics["trace.layer_sum_ratio"] = table["layer_sum_ratio"]
    outcome.metrics["trace.overhead"] = window_cpu_s([profile]) / plain_cpu
    if abs(table["layer_sum_ratio"] - 1.0) > 0.01:
        outcome.problems.append("layers do not partition the profile: %r" % table["layer_sum_ratio"])
    counts = dict(plain["counts"])
    events = counts.pop("events")
    outcome.metrics.update(counts)
    outcome.metrics["sim.host_us_per_event"] = plain_cpu / max(1, events) * 1e6
    outcome.metrics["obs.deep_tracing_overhead"] = window_cpu_s([deep]) / plain_cpu
    # Measured on the write_fanout_8site shape only; 0 = not measured here.
    outcome.metrics["sim.parallel.wall_speedup_w2"] = 0.0
    if parallel is not None:
        outcome.metrics["sim.parallel.wall_speedup_w2"] = (
            parallel["serial_wall_s"] / parallel["parallel_wall_s"]
        )
        if parallel["serial_committed"] != parallel["parallel_committed"]:
            outcome.problems.append("parallel executor committed %r" % parallel)
    outcome.metrics.update(micro["micro"])
    outcome.artifact = {"plain": plain, "profile": profile, "deep": deep, "parallel": parallel}
    return outcome


def run_traced(workload: str, seed: int, seconds: float) -> Outcome:
    return traced_outcome(
        workload,
        spawn_pass(workload, seed, seconds, "plain"),
        spawn_pass(workload, seed, seconds, "profile"),
        spawn_pass(workload, seed, seconds, "deep"),
        spawn_pass(workload, seed, seconds, "micro"),
        spawn_pass(workload, seed, seconds, "parallel")
        if workload == "write_fanout_8site"
        else None,
    )


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def declared(contract: dict, traced: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in contract["per_layer" if traced else "end_to_end"]}


def driver_json(contract: dict, outcome: Outcome, traced: bool) -> dict:
    """The contract's result object: exactly the declared metrics."""
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in declared(contract, traced).items()
        },
    }


def print_table(workload: str, seed: int, outcome: Outcome, units: Dict[str, str]) -> None:
    print("== %s (seed %d)" % (workload, seed))
    for name in sorted(outcome.metrics):
        print("  %-48s %16.6f %s" % (name, outcome.metrics[name], units.get(name, "?")))
    for key, value in sorted(outcome.notes.items()):
        print("  # %s = %s" % (key, value))
    for problem in outcome.problems:
        print("  !! %s" % problem)


def relative_differences(contract: dict, first: Outcome, second: Outcome):
    """(metric, a, b, |a-b|/|a|, bound) for every end-to-end metric."""
    rows = []
    for metric in contract["end_to_end"]:
        a, b = first.metrics[metric["name"]], second.metrics[metric["name"]]
        rows.append((metric["name"], a, b, abs(a - b) / abs(a) if a else float(a != b), metric["bound"]))
    return rows


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def mode_agree(contract, workloads, seeds, seconds) -> int:
    """Two sets of runs of the same code must agree within the bounds:
    simulated metrics and layer call counts exactly, host metrics within
    theirs."""
    status = 0
    for workload in workloads:
        first = run_untraced(workload, seeds[workload], seconds)
        second = run_untraced(workload, seeds[workload], seconds)
        print("== %s" % workload)
        for name, a, b, diff, bound in relative_differences(contract, first, second):
            exact = name.startswith("sim_") or name == "committed_share"
            ok = (a == b) if exact else diff <= bound
            print("  %-24s %14.6f %14.6f  diff %7.4f  bound %5.2f%s  %s"
                  % (name, a, b, diff, bound, " (exact)" if exact else "", "ok" if ok else "EXCEEDED"))  # fmt: skip
            status |= not ok
        for problem in first.problems + second.problems:
            print("  !! %s" % problem)
            status = 1
        # Layer call counts are exact too: later PRs may claim on them.
        calls = [
            {
                layer: (row["calls"], row["calls_in"])
                for layer, row in spawn_pass(workload, seeds[workload], seconds, "profile")[
                    "host"
                ]["layers"]["layers"].items()
            }
            for _ in range(2)
        ]
        differing = sorted(layer for layer in calls[0] if calls[0][layer] != calls[1][layer])
        print("  <layer>.calls / .calls_in of two profiled passes: %s"
              % ("identical" if not differing else "DIFFER in %s" % differing))  # fmt: skip
        status |= bool(differing)
    return status


def mode_check(workloads, seeds, seconds) -> int:
    status = 0
    for workload in workloads:
        check = spawn_pass(workload, seeds[workload], seconds, "check")["check"]
        print("== %s: %s" % (workload, json.dumps(check, sort_keys=True)[:400]))
        status |= not check["ok"]
    return status


def mode_micro(contract: dict, seconds: float) -> int:
    units = declared(contract, traced=True)
    rates = spawn_pass("micro", 0, seconds, "micro")["micro"]
    for name in sorted(rates):
        print("  %-48s %16.1f %s" % (name, rates[name], units[name]))
    print(json.dumps({"correct": True, "metrics": rates}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="one of the six, 'micro', or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--json", metavar="OUT", help="write the full artifact here")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no program to measure under %s/src/repro" % ROOT, file=sys.stderr)
        return 2
    contract, ledger = load_contract(), load_ledger()
    names = [w["name"] for w in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    if args.workload == "micro":
        return mode_micro(contract, seconds)
    if args.workload != "all" and args.workload not in names:
        parser.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
    workloads = names if args.workload == "all" else [args.workload]
    seeds = {
        name: args.seed if args.seed is not None else ledger["workloads"][name]["default_seed"]
        for name in workloads
    }
    if args.agree:
        return mode_agree(contract, workloads, seeds, seconds)
    if args.check:
        return mode_check(workloads, seeds, seconds)

    traced = bool(args.trace or args.traced)
    units = declared(contract, traced)
    status, artifact, last = 0, {}, None
    for workload in workloads:
        run = run_traced if traced else run_untraced
        outcome = run(workload, seeds[workload], seconds)
        print_table(workload, seeds[workload], outcome, units)
        last = driver_json(contract, outcome, traced)
        artifact[workload] = dict(last, problems=outcome.problems, raw=outcome.artifact)
        status |= not outcome.correct
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(artifact, handle, indent=1, sort_keys=True)
    if len(workloads) == 1:
        print(json.dumps(last))
    else:
        print(json.dumps({"correct": not status, "workloads": sorted(artifact)}))
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PassFailed as failure:
        print("run.py: %s" % failure, file=sys.stderr)
        sys.exit(3)
