"""One pass of one workload, in a process of its own.

``run.py`` starts this file once per pass, one at a time, with
``PYTHONHASHSEED=0``.  A pass is **set-up** (imports, ``Deployment``,
populate, spawn the closed-loop clients, simulated warm-up -- all
counted in ``setup_s``) followed by the **measured window**: a fixed
simulated duration, so the work is a deterministic function of the seed,
timed with ``time.process_time()`` in ``SLICES`` equal slices.  Between
slices the pass times the reference kernel (``calibrate.py``) and scales
each slice to reference speed; the runner then min-merges the same slice
across passes.  ``setup_s`` is scaled the same way.

Modes: ``plain`` (the timed pass), ``profile`` (the window runs under
``cProfile``, bucketed by layer), ``deep`` (deepest tracing the workload
supports, for ``obs.deep_tracing_overhead``), ``check`` (reduced window
with output checks; never timed), and two that ignore the workload's
clients: ``micro`` (the ``micro.*`` layer rates) and ``parallel`` (serial
against 2-worker parallel executor, ``sim.parallel.wall_speedup_w2``).

Below the reference ``--seconds 10`` the warm-up shrinks with the window,
so smoke runs stay short; such runs are not comparable with full ones.

The last line of stdout is the pass's JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

MODES = ("plain", "profile", "deep", "check", "micro", "parallel")

#: ``--seconds`` the window lengths in ``workloads.py`` are sized for.
REFERENCE_SECONDS = 10.0

#: The measured window is timed in this many equal simulated slices
#: (~75 ms of host time each), with a reference sample between them.
SLICES = 40
#: The simulated warm-up is cut up likewise, for ``setup_s``.
WARMUP_SLICES = 4


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Setup:
    """Set-up time so far: wall seconds since the runner spawned this
    process, scaled by the reference samples taken along the way."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.samples = [calibrate.sample()]

    def mark(self) -> None:
        self.samples.append(calibrate.sample())

    def done(self) -> dict:
        self.mark()
        wall = time.time() - self.t0
        return {
            "setup_s": calibrate.to_reference_speed(wall, *self.samples),
            "setup_raw_s": wall,
        }


def _measure(mode: str, advance, n_slices: int) -> dict:
    """The measured window: CPU seconds of each slice at reference speed
    (``slice_cpu_s``) and of the whole window as measured (``raw_cpu_s``)."""
    gc.collect()
    gc.freeze()
    if mode == "profile":
        return _measure_profiled(advance, n_slices)
    cpu, refs = [], [calibrate.sample()]
    for i in range(n_slices):
        start = time.process_time()
        advance(i)
        cpu.append(time.process_time() - start)
        refs.append(calibrate.sample())
    return {
        "slice_cpu_s": calibrate.scale_slices(cpu, refs),
        "raw_slice_cpu_s": cpu,
        "reference_s": refs,
        "raw_cpu_s": sum(cpu),
        "rss_mb": _rss_mb(),
    }


def _measure_profiled(advance, n_slices: int) -> dict:
    """The whole window as one slice under cProfile -- enabled, disabled
    and read from this file only -- with the per-layer table."""
    import cProfile

    import layers

    profiler = cProfile.Profile()
    before = calibrate.sample()
    start = time.process_time()
    profiler.enable()
    try:
        for i in range(n_slices):
            advance(i)
    finally:
        profiler.disable()
    elapsed = time.process_time() - start
    after = calibrate.sample()
    return {
        "slice_cpu_s": [calibrate.to_reference_speed(elapsed, before, after)],
        "raw_cpu_s": elapsed,
        "rss_mb": _rss_mb(),
        "layers": layers.bucket(profiler.getstats()),
    }


def closed_loop_pass(name: str, seed: int, seconds: float, mode: str, setup: Setup):
    import counts
    import workloads

    shape = workloads.WORKLOADS[name]
    checking = mode == "check"
    stats = workloads.LoopStats(record_acks=checking)
    deploy = {}
    if mode == "deep":
        deploy["tracing"] = "deep"
    if checking:
        deploy["trace"] = True
    running = shape.build(seed, stats, **deploy)
    world = running.world
    scale = seconds / REFERENCE_SECONDS
    smoke = min(1.0, scale)
    if checking:
        warmup, window = 0.0, shape.check_sim_s * smoke
    else:
        warmup, window = shape.warmup_sim_s * smoke, shape.window_sim_s * scale
    setup.mark()
    for i in range(WARMUP_SLICES):
        world.run(until=warmup * (i + 1) / WARMUP_SLICES)
        setup.mark()
    before = world.metrics_snapshot()
    events_before = world.kernel.events_executed
    host = setup.done()

    stats.measuring = True
    start = world.kernel.now
    host.update(
        _measure(mode, lambda i: world.run(until=start + window * (i + 1) / SLICES), SLICES)
    )
    stats.measuring = False
    after = world.metrics_snapshot()

    result = {
        "sim": counts.closed_loop_sim(stats, before, after, window, world.base_site_of),
        "counts": counts.closed_loop_counts(
            stats, before, after, world.kernel.events_executed - events_before
        ),
        "tx": {
            "attempted": stats.attempted,
            "committed": stats.committed,
            "aborted": stats.aborted,
            "errored": stats.errored,
            "first_error": stats.first_error,
            "update_samples": len(stats.update_latencies),
            "read_samples": len(stats.read_latencies),
        },
        "host": host,
    }
    if checking:
        import checks

        result["check"] = checks.closed_loop_checks(running, shape.settle_sim_s)
    return result


def chaos_pass(seed: int, seconds: float, mode: str, setup: Setup):
    import counts
    import workloads
    from repro.chaos import ChaosConfig, run_chaos

    setup.mark()

    shape = workloads.WORKLOADS["chaos_recovery"]
    checking = mode == "check"
    scale = 2.5 if checking else seconds / REFERENCE_SECONDS
    default, sharded = shape.seeds(
        seed,
        max(1, round(shape.default_runs * scale)),
        max(1, round(shape.sharded_runs * scale)),
        consecutive=checking,
    )
    configs = [ChaosConfig(seed=s) for s in default] + [
        ChaosConfig(seed=s, **shape.sharded_config) for s in sharded
    ]
    monitor = mode == "deep"
    # Warm-up: a few unmeasured runs so lazy imports and first-call costs
    # are paid in set-up, as in the closed-loop workloads.
    for config in configs[: shape.warmup_runs]:
        run_chaos(config, monitor=monitor)
    host = setup.done()

    results = []
    n_slices = min(SLICES, len(configs))
    bounds = [len(configs) * i // n_slices for i in range(n_slices + 1)]

    def advance(i):
        for config in configs[bounds[i] : bounds[i + 1]]:
            results.append(run_chaos(config, monitor=monitor))

    host.update(_measure(mode, advance, n_slices))
    summary = counts.chaos_summary(results)
    summary["host"] = host
    if checking:
        failed = [
            {"seed": r.config.seed, "verdict": r.verdict_obj()} for r in results if not r.passed
        ]
        summary["check"] = {
            "ok": not failed,
            "verdicts": len(results),
            "passed": len(results) - len(failed),
            "failures": failed[:5],
        }
    return summary


def micro_pass(seconds: float):
    import micro

    return {"micro": micro.run_all(repeats=3 if seconds >= REFERENCE_SECONDS else 1)}


def parallel_pass(seed: int, seconds: float):
    """Wall seconds of the ``write_fanout_8site`` shape (build, populate,
    warm-up, window) on the serial kernel, then on the parallel executor
    with 2 spawn workers; both must commit the same transactions."""
    import workloads
    from repro import Deployment

    shape = workloads.WORKLOADS["write_fanout_8site"]
    smoke = min(1.0, seconds / REFERENCE_SECONDS)
    params = dict(seed=seed, until=(shape.warmup_sim_s + shape.window_sim_s) * smoke)

    start = time.perf_counter()
    serial = workloads.fanout_scenario(
        Deployment(**workloads.fanout_deploy(seed)), **params
    )
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = Deployment(executor="parallel", workers=2, **workloads.fanout_deploy(seed))
    result = parallel.run_scenario("workloads:fanout_scenario", params=params)
    parallel_wall = time.perf_counter() - start
    committed = sum(r["committed"] for r in result.scenario_results)
    return {
        "serial_wall_s": serial_wall,
        "parallel_wall_s": parallel_wall,
        "serial_committed": serial["committed"],
        "parallel_committed": committed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--t0", type=float, default=None, help="time.time() at spawn")
    args = parser.parse_args(argv)
    setup = Setup(args.t0 if args.t0 is not None else time.time())

    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.mode == "micro":
        result = micro_pass(args.seconds)
    elif args.mode == "parallel":
        result = parallel_pass(args.seed, args.seconds)
    elif args.workload == "chaos_recovery":
        result = chaos_pass(args.seed, args.seconds, args.mode, setup)
    else:
        result = closed_loop_pass(args.workload, args.seed, args.seconds, args.mode, setup)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
