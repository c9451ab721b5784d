"""The chaos CLI reports every seed of a sweep."""

from repro.chaos.__main__ import main


def test_a_sweep_prints_every_seed_and_fails_if_any_failed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status = main(["--seed", "1", "--runs", "3", "--bug", "skip_resume_propagation"])
    out = capsys.readouterr().out
    verdicts = [line for line in out.splitlines() if line.startswith("seed ")]
    assert [line.split(":")[0] for line in verdicts] == ["seed 1", "seed 2", "seed 3"]
    assert "seed 2: FAIL" in out  # the planted bug is caught on seed 2 ...
    assert status == 1  # ... which fails the sweep, without stopping it
    assert "shrinking" not in out and not list(tmp_path.iterdir())


def test_a_passing_sweep_exits_zero(capsys):
    assert main(["--seed", "0", "--runs", "2"]) == 0
    assert capsys.readouterr().out.count(": PASS") == 2
