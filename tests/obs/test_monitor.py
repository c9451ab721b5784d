"""Online invariant monitor against the chaos harness.

The monitor must (a) stay silent -- no *active* alerts once the run
settles -- on clean fault-injected runs, (b) flag the planted protocol
bugs the post-hoc oracles also catch, while the run is still in flight,
and (c) never perturb the simulated schedule: a monitored run's verdict
is byte-identical to the unmonitored one.
"""

import itertools
import os
from dataclasses import replace

import repro.deployment as deployment
from repro.chaos import ChaosConfig, ReproArtifact, run_chaos

#: A fault schedule the clean protocol survives (part of CI's 1..10
#: smoke batch).
CLEAN_SEED = 5
#: Seed whose schedule trips the skip_resume_propagation planted bug
#: (see tests/chaos/test_planted_bug.py).
CATCHING_SEED = 2


def _pinned(fn):
    """Run ``fn`` with the process-global deployment counter pinned.

    Host names embed the counter, and they leak into injection-error
    strings inside chaos verdicts -- so comparing verdicts across runs
    requires both runs to see the same counter value.
    """
    old = deployment._deploy_seq
    deployment._deploy_seq = itertools.count(1)
    try:
        return fn()
    finally:
        deployment._deploy_seq = old


def test_monitor_silent_on_clean_run_and_schedule_invisible():
    config = ChaosConfig(seed=CLEAN_SEED)
    plain = _pinned(lambda: run_chaos(config))
    monitored = _pinned(lambda: run_chaos(config, monitor=True))
    assert plain.passed and monitored.passed
    # Monitoring is passive: the verdict (oracle results, end time,
    # injection log) is byte-identical with the monitor attached.
    assert monitored.verdict_json() == plain.verdict_json()
    monitor = monitored.monitor
    assert monitor is not None and monitor.checks_run > 0
    # Transient breaches during injected faults may raise and resolve;
    # nothing may still be active after the run settles.
    assert monitor.active_alerts() == []
    assert all(a.resolved_at is not None for a in monitor.alerts)


def test_monitor_flags_skipped_propagation_resume():
    result = run_chaos(
        ChaosConfig(seed=CATCHING_SEED, bug="skip_resume_propagation"),
        monitor=True,
    )
    assert not result.passed  # the post-hoc oracles agree
    active = {a.kind for a in result.monitor.active_alerts()}
    # The never-resumed propagation leaves receivers permanently behind
    # the origin's committed frontier.
    assert "replication_stall" in active


def test_monitor_flags_leaked_prepare_locks():
    artifact = ReproArtifact.load(
        os.path.join(
            os.path.dirname(__file__), "..", "chaos", "seeds", "seed-401.json"
        )
    )
    result = run_chaos(
        replace(artifact.config, bug="leak_prepare_locks"),
        schedule=artifact.schedule,
        monitor=True,
    )
    assert not result.passed
    active = {a.kind for a in result.monitor.active_alerts()}
    # Orphaned prepare locks breach the lock-hold SLO and never resolve.
    assert "lock_hold" in active


def test_alert_serialization():
    result = run_chaos(ChaosConfig(seed=CLEAN_SEED), monitor=True)
    monitor = result.monitor
    summary = monitor.summary()
    assert summary["raised"] == len(monitor.alerts)
    assert summary["active"] == len(monitor.active_alerts())
    for alert in monitor.alerts:
        d = alert.to_dict()
        assert set(d) == {
            "kind", "site", "key", "raised_at", "resolved_at", "details",
        }
