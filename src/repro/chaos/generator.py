"""Random fault-schedule generation, parameterized by a fault budget.

Faults are not sprinkled uniformly: structural faults that must pair up
to leave the system repairable -- crash/replace, partition/heal, and the
full §5.7 outage sequence (fail, aggressive removal, re-integration) --
are placed as *scenarios* inside disjoint time windows, so one scenario's
repair RPCs are not wrecked by the next scenario's partition.  Light
faults (message-loss bursts, WAL flush stalls, preferred-site handovers)
land anywhere.

Generation draws only on :class:`~repro.chaos.harness.ChaosConfig` (never
on simulation state) from a stream derived from the config seed, so the
same config always yields the byte-identical schedule.

The run's fault set (``config.faults``) never changes the draws: a
structural scenario outside the set falls through to ``partition_heal``,
a light fault outside it to ``loss_burst``, and a side-stream fault
outside it is skipped.  So one seed gives every protocol-zoo backend the
same schedule, and the Walter deployment, whose set is the whole
catalog, the schedule it always had.
"""

from __future__ import annotations

import random
from typing import List

from ..sim.rand import derive_seed
from .schedule import FaultEvent, Schedule

#: Single-event faults a budget point buys directly.
LIGHT_FAULTS = ("loss_burst", "flush_stall", "handover")

#: The faults each structural scenario injects.
SCENARIOS = {
    "site_outage": ("fail_site", "remove_site", "reintegrate"),
    "crash_replace": ("crash", "replace"),
    "partition_heal": ("partition", "heal"),
}

#: Minimum window (seconds) a full site outage needs: removal is several
#: coordinator RPC rounds, and re-integration several more.
MIN_OUTAGE_WINDOW = 2.5


def generate_schedule(config) -> Schedule:
    """Spend ``config.fault_budget`` points on scenarios (site outage
    costs 3, crash/replace and partition/heal cost 2, light faults 1)
    and lay them out over ``[0.05, 0.95] * horizon``."""
    rng = random.Random(derive_seed(config.seed, "chaos.schedule"))
    faults = config.faults
    # Faults target *logical* sites: a sharded config (shards > 1) runs
    # n_sites * shards shard servers, and every one is fair game.  At
    # shards=1 this is exactly config.n_sites, so unsharded schedules
    # are unchanged.
    n = config.n_sites * config.shards
    horizon = config.horizon
    structural: List[str] = []
    light: List[str] = []
    remaining = max(0, config.fault_budget)
    while remaining > 0:
        roll = rng.random()
        if n >= 2 and remaining >= 3 and roll < 0.20:
            structural.append("site_outage")
            remaining -= 3
        elif remaining >= 2 and roll < 0.50:
            structural.append("crash_replace")
            remaining -= 2
        elif n >= 2 and remaining >= 2 and roll < 0.70:
            structural.append("partition_heal")
            remaining -= 2
        else:
            light.append(rng.choice(LIGHT_FAULTS))
            remaining -= 1
    rng.shuffle(structural)

    events: List[FaultEvent] = []
    start, end = 0.05 * horizon, 0.95 * horizon
    if structural:
        width = (end - start) / len(structural)
        for i, kind in enumerate(structural):
            w0 = start + i * width
            w1 = w0 + width * 0.8  # 20% gap before the next scenario
            if not faults.issuperset(SCENARIOS[kind]):
                kind = "partition_heal"
            if kind == "site_outage" and (w1 - w0) < MIN_OUTAGE_WINDOW:
                # Too cramped for removal + re-integration: downgrade.
                kind = "crash_replace" if rng.random() < 0.5 else "partition_heal"
            if kind == "partition_heal" and n < 2:
                kind = "crash_replace"
            events.extend(_structural(rng, kind, n, w0, w1))
    for kind in light:
        events.append(_light(rng, kind if kind in faults else "loss_burst", n, start, end))

    # Prepare-reply loss rides on a dedicated stream (not the budget):
    # drawing it from the main stream would reshuffle every existing
    # schedule, invalidating the whole recorded seed corpus at once.
    prng = random.Random(derive_seed(config.seed, "chaos.prepare_loss"))
    if "prepare_reply_loss" in faults and prng.random() < 0.35:
        events.append(
            FaultEvent(
                _uniform(prng, start, end),
                "prepare_reply_loss",
                {
                    "site": prng.randrange(n),
                    "duration": round(_uniform(prng, 0.3, 1.5), 6),
                },
            )
        )

    # Mid-handover target crash (rollback fixture): its own stream for
    # the same reason as prepare_reply_loss above -- existing schedules
    # must not reshuffle.
    mrng = random.Random(derive_seed(config.seed, "chaos.migration_crash"))
    if "migration_crash" in faults and mrng.random() < 0.25:
        events.append(
            FaultEvent(
                _uniform(mrng, start, end),
                "migration_crash",
                {
                    "cid": "c%d" % mrng.randrange(n),
                    "to_site": mrng.randrange(n),
                    "kill_after": round(_uniform(mrng, 0.05, 0.5), 6),
                },
            )
        )

    schedule = Schedule(events)
    schedule.validate(n, faults)
    return schedule


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + rng.random() * max(0.0, hi - lo)


def _structural(rng: random.Random, kind: str, n: int, w0: float, w1: float):
    if kind == "crash_replace":
        site = rng.randrange(n)
        t_crash = _uniform(rng, w0, w0 + 0.4 * (w1 - w0))
        t_replace = _uniform(rng, t_crash + 0.05, w1)
        return [
            FaultEvent(t_crash, "crash", {"site": site}),
            FaultEvent(t_replace, "replace", {"site": site}),
        ]
    if kind == "partition_heal":
        a, b = sorted(rng.sample(range(n), 2))
        t_cut = _uniform(rng, w0, (w0 + w1) / 2.0)
        t_heal = _uniform(rng, t_cut + 0.1, w1)
        return [
            FaultEvent(t_cut, "partition", {"a": a, "b": b}),
            FaultEvent(t_heal, "heal", {"a": a, "b": b}),
        ]
    if kind == "site_outage":
        site = rng.randrange(n)
        reassign_to = rng.choice([s for s in range(n) if s != site])
        t_fail = _uniform(rng, w0, w0 + 0.1 * (w1 - w0))
        t_remove = t_fail + _uniform(rng, 0.05, 0.2)
        t_reintegrate = _uniform(rng, t_remove + 1.5, w1)
        return [
            FaultEvent(t_fail, "fail_site", {"site": site}),
            FaultEvent(t_remove, "remove_site", {"site": site, "reassign_to": reassign_to}),
            FaultEvent(t_reintegrate, "reintegrate", {"site": site}),
        ]
    raise ValueError("unknown structural scenario %r" % (kind,))


def _light(rng: random.Random, kind: str, n: int, start: float, end: float) -> FaultEvent:
    at = _uniform(rng, start, end)
    if kind == "loss_burst":
        return FaultEvent(
            at,
            "loss_burst",
            {"rate": round(_uniform(rng, 0.05, 0.30), 6), "duration": round(_uniform(rng, 0.2, 1.0), 6)},
        )
    if kind == "flush_stall":
        return FaultEvent(
            at,
            "flush_stall",
            {"site": rng.randrange(n), "duration": round(_uniform(rng, 0.05, 0.5), 6)},
        )
    if kind == "handover":
        # The harness names its containers c0..c{n-1} (one per site).
        return FaultEvent(
            at, "handover", {"cid": "c%d" % rng.randrange(n), "to_site": rng.randrange(n)}
        )
    raise ValueError("unknown light fault %r" % (kind,))
