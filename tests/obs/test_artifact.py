"""Run artifacts: determinism, round-trip, and the diff regression gate."""

import copy
import json

from repro.bench import PAYLOAD, populate, run_closed_loop
from repro.deployment import Deployment
from repro.obs import (
    collect_run,
    diff_artifacts,
    format_diff,
    load_artifact,
    write_artifact,
    write_run_artifact,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.artifact import summarize_artifact


def _run(seed=11):
    world = Deployment(n_sites=2, seed=seed, tracing=True, trace_capacity=65536)
    keys = populate(world, n_keys=100)

    def factory(client, rng):
        site = client.site.id

        def op():
            tx = client.start_tx()
            oid = rng.choice(keys.by_site[site])
            yield from client.read(tx, oid)
            yield from client.write(tx, oid, PAYLOAD)
            status = yield from client.commit(tx)
            return status

        return op

    run_closed_loop(
        world, factory, clients_per_site=3, warmup=0.05, measure=0.3,
        name="artifact", seed=3,
    )
    world.settle(0.5)
    return world


class TestArtifactDeterminism:
    def test_same_seed_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_run_artifact(a, _run(), "det", meta={"seed": 11})
        write_run_artifact(b, _run(), "det", meta={"seed": 11})
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.jsonl"
        data = write_run_artifact(path, _run(), "rt", meta={"seed": 11})
        loaded = load_artifact(path)
        canon = lambda d: json.loads(json.dumps(d, sort_keys=True))
        for section in ("counters", "gauges", "hists", "budgets", "profiles"):
            assert canon(data[section]) == canon(loaded[section]), section
        assert loaded["meta"]["name"] == "rt"
        assert loaded["meta"]["seed"] == 11
        assert loaded["budgets"]["fast"]["count"] > 0

    def test_untraced_run_keeps_no_access_profile(self, tmp_path):
        world = Deployment(n_sites=2, seed=11)
        populate(world, n_keys=10)
        world.settle(0.5)
        assert all(server.profiler is None for server in world.servers)
        assert "access_profile" not in world.metrics_snapshot()
        path = tmp_path / "untraced.jsonl"
        data = write_run_artifact(path, world, "untraced")
        loaded = load_artifact(path)
        assert "profiles" not in data and "profiles" not in loaded
        assert "profile" not in summarize_artifact(loaded)


class TestDiff:
    def _base(self):
        return collect_run(_run(), "diff-base")

    def test_identical_is_clean(self):
        base = self._base()
        regressions, notes = diff_artifacts(base, copy.deepcopy(base))
        assert regressions == []
        assert notes == []

    def test_budget_regression_flagged(self):
        base = self._base()
        worse = copy.deepcopy(base)
        worse["budgets"]["fast"]["total"]["p99"] *= 1.5
        regressions, _ = diff_artifacts(base, worse)
        assert any("budget[fast].total.p99" in r for r in regressions)
        # Direction matters: the same move in reverse is only a note.
        regressions, notes = diff_artifacts(worse, base)
        assert not any("total.p99" in r for r in regressions)
        assert any("total.p99" in n for n in notes)

    def test_tiny_absolute_wiggle_ignored(self):
        base = self._base()
        wiggle = copy.deepcopy(base)
        # +50% relative but only 15us absolute: below ABS_FLOOR.
        wiggle["budgets"]["fast"]["segments"]["commit_critical"]["mean"] = (
            base["budgets"]["fast"]["segments"]["commit_critical"]["mean"] + 1.5e-5
        )
        regressions, _ = diff_artifacts(base, wiggle)
        assert regressions == []

    def test_throughput_drop_flagged(self):
        base = self._base()
        worse = copy.deepcopy(base)
        for key in worse["counters"]:
            if key.startswith("server.commits"):
                worse["counters"][key] = int(worse["counters"][key] * 0.5)
        regressions, _ = diff_artifacts(base, worse)
        assert any("server.commits" in r for r in regressions)

    def test_format_diff(self):
        text = format_diff(["budget[fast].total.p99: worse"], ["note-1"])
        assert "REGRESSIONS (1)" in text
        assert "note-1" in text
        assert "no regressions" in format_diff([], [])


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        base_path = tmp_path / "base.jsonl"
        data = write_run_artifact(base_path, _run(), "cli", meta={"seed": 11})
        worse = copy.deepcopy(data)
        worse["budgets"]["fast"]["total"]["p99"] *= 1.5
        worse_path = tmp_path / "worse.jsonl"
        write_artifact(worse_path, worse)

        assert obs_main(["summarize", str(base_path)]) == 0
        assert "fast commit" in capsys.readouterr().out
        assert obs_main(["diff", str(base_path), str(base_path)]) == 0
        assert obs_main(["diff", str(base_path), str(worse_path)]) == 1
        assert "REGRESSIONS" in capsys.readouterr().out
