"""Property-based stateful chaos testing (ISSUE satellite #1).

Runs a batch of random seeded fault schedules through the full harness
-- real Deployment, real recovery protocol -- and asserts the PSI
checker plus convergence/durability/liveness oracles hold on every one.
Also pins the determinism contract the reproduction workflow relies on:
same seed twice => byte-identical schedule, verdict, and artifact.
"""

import json

import pytest

from repro.chaos import ChaosConfig, ReproArtifact, generate_schedule, run_chaos
from repro.server import WalterServer
from repro.server.propagation import IDLE, STOPPED

#: Satellite #1 requires >= 50 random schedules through check_trace.
PROPERTY_SEEDS = list(range(1, 51))


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_random_schedule_upholds_psi_and_convergence(seed):
    result = run_chaos(ChaosConfig(seed=seed))
    assert result.passed, "seed %d violated: %s\nschedule: %s" % (
        seed,
        result.verdict_json(),
        result.schedule.to_json(),
    )
    # The workload must have actually exercised the system.
    assert sum(result.outcomes.values()) > 0


def test_same_seed_byte_identical_schedule_and_verdict():
    cfg = ChaosConfig(seed=17)
    first = run_chaos(cfg)
    second = run_chaos(cfg)
    assert first.schedule.to_json() == second.schedule.to_json()
    assert first.verdict_json() == second.verdict_json()
    assert first.artifact().to_json() == second.artifact().to_json()


def test_explicit_schedule_overrides_generation():
    cfg = ChaosConfig(seed=3)
    sched = generate_schedule(ChaosConfig(seed=9))
    result = run_chaos(cfg, schedule=sched)
    assert result.schedule.to_json() == sched.to_json()


def test_failing_artifact_round_trips(tmp_path):
    """A failure artifact (from a planted bug) must reproduce the same
    verdict after a JSON save/load cycle -- the repro workflow contract."""
    cfg = ChaosConfig(seed=2, bug="skip_resume_propagation")
    result = run_chaos(cfg)
    assert not result.passed, "planted bug went undetected on seed 2"

    path = tmp_path / "repro.json"
    result.artifact().save(path)
    loaded = ReproArtifact.load(path)
    assert loaded.to_json() == result.artifact().to_json()
    # Artifacts are plain canonical JSON -- inspectable, diffable.
    obj = json.loads(path.read_text())
    assert set(obj) == {"config", "schedule", "verdict"}

    replayed = loaded.replay()
    assert replayed.verdict_obj() == loaded.verdict
    assert not replayed.passed


def test_planted_bug_passes_without_the_bug():
    """Same seed, bug disabled: the protocol is actually correct."""
    assert run_chaos(ChaosConfig(seed=2)).passed


@pytest.mark.parametrize(
    "config",
    [ChaosConfig(seed=0), ChaosConfig(seed=0, shards=2, replication=2)],
    ids=["default", "sharded"],
)
def test_an_idle_propagation_loop_leaves_at_most_one_outbox_getter(config):
    """The sender's idle tick re-arms its one timer instead of leaving
    another waiter behind: after a full chaos run every server has at
    most one sender timer queued, a running sender's one timer is live
    (not superseded), and no commit record sits in the outbox behind
    an idle sender."""
    result = run_chaos(config)
    kernel = result.world.kernel
    queued = list(kernel._heap) + list(kernel._ready)
    for server in result.world.servers:
        timers = [
            args[0]
            for _, _, fn, args in queued
            if getattr(fn, "__self__", None) is server
            and getattr(fn, "__func__", None) is WalterServer._sender_fired
        ]
        assert len(timers) <= 1, (server.site_id, timers)
        if server._sender != STOPPED:
            assert timers == [server._sender_gen], server.site_id
        if server._sender == IDLE:
            assert not server._outbox, server.site_id
