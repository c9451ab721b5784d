"""Closed-loop benchmark driver.

Mirrors the paper's methodology (§8.1): multiple clients per site issue
operations back-to-back against their local server; the harness discards
a warmup window and reports throughput and latency over the measurement
window in *simulated* time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..deployment import Deployment
from ..sim import Interrupt
from .metrics import BenchResult, LatencyRecorder

#: An operation factory: (client, rng) -> zero-arg generator-function
#: performing one operation and returning an optional label.
OpFactory = Callable


def run_closed_loop_raw(
    kernel,
    clients: Sequence,
    op_factory: OpFactory,
    warmup: float = 0.2,
    measure: float = 0.5,
    name: str = "bench",
    seed: int = 1234,
    obs=None,
    runner=None,
) -> BenchResult:
    """Generic closed-loop driver over pre-built clients (used directly by
    the baseline benchmarks; Walter benchmarks use :func:`run_closed_loop`).

    ``obs`` (a :class:`repro.obs.Observability`) adds a metric snapshot to
    the result, taken right after the measurement window closes.

    ``runner`` overrides how simulated time advances: a callable taking
    the absolute target time.  The parallel executor passes the
    deployment's barrier loop here; the default drives ``kernel`` alone.
    ``clients`` may contain ``None`` entries (cluster mode: a client
    whose site another worker owns) -- they hold their global index, so
    per-client seeds line up across workers, but drive no load locally."""
    recorder = LatencyRecorder(name)
    by_label = {}
    state = {"ops": 0, "errors": 0, "measuring": False}

    def worker(client, rng):
        op = op_factory(client, rng)
        try:
            while True:
                start = kernel.now
                try:
                    label = yield from op()
                except Interrupt:
                    raise
                except Exception:
                    if state["measuring"]:
                        state["errors"] += 1
                    continue
                if state["measuring"]:
                    latency = kernel.now - start
                    state["ops"] += 1
                    recorder.record(latency)
                    if label:
                        by_label.setdefault(label, LatencyRecorder(label)).record(latency)
        except Interrupt:
            return

    run_until = runner or (lambda t: kernel.run(until=t))
    workers = []
    for i, client in enumerate(clients):
        if client is None:
            continue
        rng = random.Random(seed * 97 + i)
        workers.append(kernel.spawn(worker(client, rng), name="worker-%d" % i))

    run_until(kernel.now + warmup)
    state["measuring"] = True
    measure_start = kernel.now
    run_until(measure_start + measure)
    state["measuring"] = False
    duration = kernel.now - measure_start
    for proc in workers:
        proc.interrupt("bench done")
    run_until(kernel.now + 0.001)

    return BenchResult(
        name=name,
        ops=state["ops"],
        errors=state["errors"],
        duration=duration,
        latencies=recorder,
        by_label=by_label,
        metrics=obs.snapshot() if obs is not None else None,
    )


def run_closed_loop(
    world: Deployment,
    op_factory: OpFactory,
    sites: Optional[Sequence[int]] = None,
    clients_per_site: int = 16,
    warmup: float = 0.2,
    measure: float = 0.5,
    name: str = "bench",
    seed: int = 1234,
) -> BenchResult:
    """Drive closed-loop Walter clients and measure the steady window."""
    sites = list(sites if sites is not None else range(world.n_sites))
    clients = [
        world.new_client(site) for site in sites for _ in range(clients_per_site)
    ]
    return run_closed_loop_raw(
        world.kernel, clients, op_factory,
        warmup=warmup, measure=measure, name=name, seed=seed,
        obs=getattr(world, "obs", None),
        # world.run == kernel.run outside cluster mode; in cluster mode it
        # is the parallel executor's barrier loop.
        runner=lambda t: world.run(until=t),
    )
