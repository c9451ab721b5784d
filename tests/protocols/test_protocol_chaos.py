"""Chaos for the protocol zoo: every registry backend survives a seeded
fault schedule from the shared engine (``run_chaos`` with
``ChaosConfig(protocol=...)``) and its witness passes the verifier at
its own level and at every weaker one.

Fixed seeds keep these deterministic; the CI protocol-matrix job runs a
wider seed range via ``python -m repro.chaos --protocol <name>``.
"""

import os

import pytest

from repro.chaos import (
    ChaosConfig,
    FaultEvent,
    FaultInjector,
    ReproArtifact,
    Schedule,
    ScheduleError,
    generate_schedule,
    run_chaos,
    shrink_schedule,
)
from repro.chaos.schedule import ZOO_FAULTS
from repro.protocols.registry import PROTOCOL_NAMES, build

SMOKE = dict(n_sites=3, horizon=10.0, fault_budget=3, clients_per_site=2,
             txs_per_client=4, settle=30.0)

SEED_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "chaos", "seeds")


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_protocol_chaos_smoke(name):
    result = run_chaos(ChaosConfig(protocol=name, seed=5, **SMOKE))
    assert result.passed, "\n".join(str(v) for v in result.violations)
    assert result.outcomes.get("COMMITTED", 0) > 0, result.outcomes
    assert result.applied_faults, "schedule applied no faults"


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_protocol_chaos_verdict_deterministic(name):
    config = ChaosConfig(
        protocol=name, seed=6, n_sites=3, horizon=6.0, fault_budget=2,
        clients_per_site=1, txs_per_client=3, settle=20.0,
    )
    assert run_chaos(config).verdict_json() == run_chaos(config).verdict_json()


#: Seeds where a commit's reply was lost (its client saw ERROR) but the
#: servers committed it and a committed reader saw its write.  Judged by
#: the client's record they fail; by the servers' witness, which lists
#: the writer as committed, they pass.  Each is a stored artifact, so the
#: schedule that produced it stays fixed.
INDETERMINATE_COMMITS = [("si", 17), ("consus", 23), ("nmsi", 10), ("walter", 108)]


def _artifact(name, seed):
    return ReproArtifact.load(os.path.join(SEED_DIR, "seed-%s-%03d.json" % (name, seed)))


def _indeterminate_commit(result):
    order = set(result.world.witness().order)
    return any(
        t.status == "ERROR" and t.tid in order for t in result.world.history.transactions
    )


@pytest.mark.parametrize("name,seed", INDETERMINATE_COMMITS,
                         ids=["%s-%d" % case for case in INDETERMINATE_COMMITS])
def test_an_indeterminate_commit_is_judged_by_the_servers_witness(name, seed):
    artifact = _artifact(name, seed)
    result = artifact.replay()
    assert result.passed, result.verdict_json()
    assert result.verdict_obj() == artifact.verdict
    assert _indeterminate_commit(result)


def test_zoo_schedules_hold_network_faults_and_match_across_protocols():
    by_seed = []
    for seed in range(40):
        schedules = [generate_schedule(ChaosConfig(seed=seed, protocol=name))
                     for name in PROTOCOL_NAMES]
        assert len({s.to_json() for s in schedules}) == 1, (
            "seed %d: protocols got different faults" % seed
        )
        assert {e.fault for e in schedules[0]} <= ZOO_FAULTS
        by_seed.append(schedules[0].to_json())
    assert len(set(by_seed)) == len(by_seed), "two seeds drew the same faults"


@pytest.mark.parametrize("setting", [
    {"bug": "skip_resume_propagation"},
    {"shards": 2},
    {"replication": 2},
    {"flush_latency": 0.01},
    {"n_csets": 3},
    {"n_sites": 1},
    {"protocol": "paxos"},
])
def test_a_zoo_config_that_cannot_run_raises(setting):
    with pytest.raises(ValueError):
        ChaosConfig(seed=1, **dict({"protocol": "si"}, **setting))


def test_a_zoo_config_takes_batching_as_the_no_op_it_is():
    ChaosConfig(seed=1, protocol="si", batching=True)


def test_a_zoo_run_rejects_a_fault_outside_its_set():
    config = ChaosConfig(seed=1, protocol="nmsi")
    crash = Schedule([FaultEvent(1.0, "crash", {"site": 0})])
    with pytest.raises(ScheduleError):
        run_chaos(config, schedule=crash)


def test_overlapping_loss_bursts_on_a_zoo_backend_keep_the_higher_rate():
    backend = build("si", n_sites=3, seed=1)
    base = backend.network.loss_rate
    injector = FaultInjector(
        backend,
        Schedule([
            FaultEvent(1.0, "loss_burst", {"rate": 0.3, "duration": 3.0}),
            FaultEvent(2.0, "loss_burst", {"rate": 0.1, "duration": 1.0}),
        ]),
    )
    injector.start()
    backend.run(until=2.5)
    assert backend.network.loss_rate == 0.3
    backend.run(until=3.5)  # the shorter burst is over, the longer is not
    assert backend.network.loss_rate == 0.3
    backend.run(until=4.5)
    assert backend.network.loss_rate == base


def test_a_zoo_run_shrinks_and_its_artifact_replays_byte_identically():
    artifact = _artifact("nmsi", 10)
    report = shrink_schedule(
        artifact.config, artifact.schedule, max_runs=12,
        still_fails=_indeterminate_commit,
    )
    assert report.final_events < report.initial_events
    assert _indeterminate_commit(report.result)
    stored = ReproArtifact.from_json(report.result.artifact().to_json())
    assert stored.replay().verdict_json() == report.result.verdict_json()
