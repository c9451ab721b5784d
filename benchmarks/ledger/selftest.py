"""Self-test of the ledger: the contract file and what the runner emits.

    python3 benchmarks/ledger/selftest.py --small      # < 30 s

Checks that

* ``BENCHMARK.json`` is within the driver's limits (key set, name and
  unit alphabets, counts, bounds, ``setup_s``) and agrees with
  ``ledger.json`` on the workloads;
* no file here is named ``bench_*`` / ``test_*`` (pytest collects those);
* for every workload, one run emits **exactly** the declared end-to-end
  metrics untraced and **exactly** the declared per-layer metrics traced
  -- each once, finite, nothing undeclared;
* another ``--seed`` changes ``sim_ktps``;
* the read-back output check can fail: fed a wrong expectation, it
  reports mismatches (a checker that cannot fail is not evidence).

``--small`` runs every pass at ``--seconds 1`` (a smoke-sized window and
warm-up); without it the passes run at ``run_seconds``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print("FAIL: %s" % message)


def check_contract(contract: dict, ledger: dict) -> None:
    expect(
        sorted(contract) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        "BENCHMARK.json has exactly the six contract keys",
    )
    expect(contract["paths"] == ["benchmarks/ledger"], "paths is [benchmarks/ledger]")
    for path in contract["paths"]:
        expect(bool(PATH.match(path)) and not path.startswith("/") and ".." not in path, "path %r" % path)
    command = contract["command"]
    expect(1 <= len(command) <= 32 and all(len(part) <= 200 for part in command), "command size")
    expect(
        not any(part.startswith("/") or ".." in part for part in command), "command stays in the repo"
    )
    expect(isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60, "run_seconds")
    expect(2 <= len(contract["workloads"]) <= 8, "2-8 workloads")
    expect(1 <= len(contract["end_to_end"]) <= 16, "1-16 end-to-end metrics")
    expect(1 <= len(contract["per_layer"]) <= 128, "1-128 per-layer metrics")
    names = []
    for workload in contract["workloads"]:
        expect(sorted(workload) == ["name", "why"], "workload keys of %r" % workload.get("name"))
        expect(len(workload["why"]) <= 200 and "\n" not in workload["why"], "why of %s" % workload["name"])
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        expect(sorted(metric) == ["better", "bound", "name", "unit"], "keys of %r" % metric.get("name"))
        expect(0 < metric["bound"] <= 0.25, "bound of %s" % metric["name"])
    for metric in contract["per_layer"]:
        expect(sorted(metric) == ["better", "name", "unit"], "keys of %r" % metric.get("name"))
    for metric in contract["end_to_end"] + contract["per_layer"]:
        expect(bool(UNIT.match(metric["unit"])), "unit of %s" % metric["name"])
        expect(metric["better"] in ("higher", "lower"), "direction of %s" % metric["name"])
        names.append(metric["name"])
    for name in names:
        expect(bool(NAME.match(name)), "name %r" % name)
    expect(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    expect(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s is an end-to-end metric in s, lower is better",
    )
    expect(
        setup and setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"]),
        "setup_s has the largest bound",
    )
    expect(
        sorted(ledger["workloads"]) == sorted(w["name"] for w in contract["workloads"]),
        "ledger.json and BENCHMARK.json list the same workloads",
    )
    size = os.path.getsize(os.path.join(run.ROOT, "BENCHMARK.json"))
    expect(size <= 64 * 1024, "BENCHMARK.json is at most 64 KiB (%d)" % size)


def check_file_names() -> None:
    for _dir, _subdirs, files in os.walk(run.HERE):
        for name in files:
            expect(
                not name.startswith(("bench_", "test_")) and not name.endswith("_test.py"),
                "%s would be collected by pytest" % name,
            )


def check_emission(contract: dict, ledger: dict, seconds: float) -> None:
    """Every declared (metric, workload) pair, once, and nothing else."""
    micro = run.spawn_pass("micro", 0, seconds, "micro")
    parallel = run.spawn_pass("write_fanout_8site", 23, seconds, "parallel")
    for workload in (w["name"] for w in contract["workloads"]):
        seed = ledger["workloads"][workload]["default_seed"]
        plain, profile, deep = (
            run.spawn_pass(workload, seed, seconds, mode) for mode in ("plain", "profile", "deep")
        )
        outcomes = {
            False: run.untraced_outcome(workload, [plain], None),
            True: run.traced_outcome(
                workload, plain, profile, deep, micro,
                parallel if workload == "write_fanout_8site" else None,
            ),
        }  # fmt: skip
        for traced, outcome in outcomes.items():
            kind = "per-layer" if traced else "end-to-end"
            declared = run.declared(contract, traced)
            emitted = set(outcome.metrics)
            expect(
                emitted == set(declared),
                "%s %s metrics: missing %s, undeclared %s"
                % (workload, kind, sorted(set(declared) - emitted), sorted(emitted - set(declared))),
            )
            for name, value in outcome.metrics.items():
                expect(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    "%s %s = %r is a finite number" % (workload, name, value),
                )
            if emitted == set(declared):
                result = run.driver_json(contract, outcome, traced)
                expect(
                    sorted(result) == ["attempted", "correct", "failed", "metrics"]
                    and result["attempted"] >= 1,
                    "%s %s result object" % (workload, kind),
                )
            for problem in outcome.problems:
                expect(False, "%s %s run: %s" % (workload, kind, problem))
        if workload == "slow_commit_2pc":
            other = run.spawn_pass(workload, seed + 1, seconds, "plain")
            expect(
                other["sim"]["sim_ktps"] != plain["sim"]["sim_ktps"],
                "another seed changes sim_ktps",
            )
        print("ok: %s emits %d end-to-end and %d per-layer metrics"
              % (workload, len(outcomes[False].metrics), len(outcomes[True].metrics)))  # fmt: skip


def check_readback_can_fail() -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import checks
    import workloads

    shape = workloads.WORKLOADS["slow_commit_2pc"]
    stats = workloads.LoopStats(record_acks=True)
    running = shape.build(20, stats, trace=True)
    stats.measuring = True
    running.world.run(until=1.0)
    honest = checks.closed_loop_checks(running, shape.settle_sim_s)
    expect(honest["ok"] and honest["readback_reads"] > 0, "honest read-back passes: %r" % honest)
    stats.acks[:] = [(at, oid, b"never written") for at, oid, _token in stats.acks]
    poisoned = checks.closed_loop_checks(running, 0.1)
    expect(
        not poisoned["ok"] and poisoned["readback_mismatches"] > 0,
        "read-back against a wrong expectation fails: %r" % poisoned,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true", help="smoke-sized passes (--seconds 1)")
    args = parser.parse_args(argv)
    contract, ledger = run.load_contract(), run.load_ledger()
    check_contract(contract, ledger)
    check_file_names()
    check_emission(contract, ledger, 1.0 if args.small else float(contract["run_seconds"]))
    check_readback_can_fail()
    print("selftest: %s" % ("%d FAILURES" % len(failures) if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
