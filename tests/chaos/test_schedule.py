"""Schedule DSL + generator: representation, validation, determinism."""

import json

import pytest

from repro.chaos import (
    FAULT_CATALOG,
    ChaosConfig,
    FaultEvent,
    Schedule,
    ScheduleError,
    canonical_json,
    generate_schedule,
)


class TestScheduleDSL:
    def test_events_sorted_by_time(self):
        s = Schedule(
            events=[
                FaultEvent(at=2.0, fault="crash", args={"site": 0}),
                FaultEvent(at=1.0, fault="heal", args={"a": 0, "b": 1}),
            ]
        )
        assert [e.at for e in s.events] == [1.0, 2.0]

    def test_json_round_trip_is_byte_identical(self):
        s = Schedule(
            events=[
                FaultEvent(at=0.5, fault="crash", args={"site": 1}),
                FaultEvent(at=1.25, fault="partition", args={"a": 0, "b": 2}),
                FaultEvent(
                    at=3.0, fault="loss_burst", args={"rate": 0.25, "duration": 1.0}
                ),
            ]
        )
        text = s.to_json()
        assert Schedule.from_json(text).to_json() == text
        # Canonical form: sorted keys, no whitespace -- stable across runs.
        assert text == canonical_json(json.loads(text))

    def test_validate_rejects_unknown_fault(self):
        s = Schedule(events=[FaultEvent(at=1.0, fault="meteor", args={})])
        with pytest.raises(ScheduleError):
            s.validate(3)

    def test_validate_rejects_bad_site(self):
        s = Schedule(events=[FaultEvent(at=1.0, fault="crash", args={"site": 7})])
        with pytest.raises(ScheduleError):
            s.validate(3)

    def test_validate_rejects_wrong_args(self):
        s = Schedule(events=[FaultEvent(at=1.0, fault="crash", args={"nope": 1})])
        with pytest.raises(ScheduleError):
            s.validate(3)

    @pytest.mark.parametrize(
        "event",
        [
            FaultEvent(float("inf"), "heal", {"a": 0, "b": 1}),
            FaultEvent(float("nan"), "heal", {"a": 0, "b": 1}),
            FaultEvent(1.0, "crash", {"site": True}),
            FaultEvent(1.0, "loss_burst", {"rate": 0.1, "duration": float("inf")}),
            FaultEvent(1.0, "flush_stall", {"site": 0, "duration": float("nan")}),
            FaultEvent(1.0, "migration_crash", {"cid": "c0", "to_site": 1, "kill_after": -1.0}),
            FaultEvent(1.0, "migration_crash", {"cid": "c0", "to_site": 1, "kill_after": float("nan")}),
        ],
        ids=["at-inf", "at-nan", "site-bool", "duration-inf", "duration-nan",
             "kill-after-negative", "kill-after-nan"],
    )
    def test_validate_rejects_an_event_it_cannot_run(self, event):
        with pytest.raises(ScheduleError):
            Schedule(events=[event]).validate(3)

    def test_catalog_covers_issue_fault_kinds(self):
        for kind in (
            "crash",
            "replace",
            "partition",
            "heal",
            "loss_burst",
            "flush_stall",
            "handover",
            "fail_site",
            "remove_site",
            "reintegrate",
        ):
            assert kind in FAULT_CATALOG


class TestGenerator:
    def test_same_seed_same_schedule_bytes(self):
        cfg = ChaosConfig(seed=42)
        assert generate_schedule(cfg).to_json() == generate_schedule(cfg).to_json()

    def test_different_seeds_differ(self):
        a = generate_schedule(ChaosConfig(seed=1)).to_json()
        assert any(
            generate_schedule(ChaosConfig(seed=s)).to_json() != a for s in range(2, 6)
        )

    def test_schedules_validate_and_fit_horizon(self):
        for seed in range(1, 21):
            cfg = ChaosConfig(seed=seed)
            sched = generate_schedule(cfg)
            sched.validate(cfg.n_sites)
            assert sched.events, "empty schedule for seed %d" % seed
            for event in sched.events:
                assert 0.0 < event.at < cfg.horizon

    def test_fault_budget_bounds_event_cost(self):
        # Budget counts scenario costs, so events <= budget always holds.
        for seed in range(1, 21):
            cfg = ChaosConfig(seed=seed, fault_budget=4)
            assert len(generate_schedule(cfg).events) <= 2 * cfg.fault_budget
