"""The summary cells of ``benchmarks/ab.py``: an exact (simulated-clock)
metric that moved shows its signed median change, flagged worse only
beyond the metric's bound -- the rule the host metrics use."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location("ab", os.path.join(ROOT, "benchmarks", "ab.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

WAN = {"name": "sim_wan_bytes_per_tx", "better": "lower", "bound": 0.2}
KTPS = {"name": "sim_ktps", "better": "higher", "bound": 0.06}
HOST = {"name": "host_us_per_tx", "better": "lower", "bound": 0.2}


def test_exact_metric_cells():
    assert ab.cell(WAN, [1300.0] * 3, [1300.0] * 3) == "="
    assert ab.cell(WAN, [1300.0] * 3, [900.0] * 3) == "-30.77%"  # better
    assert ab.cell(WAN, [1000.0] * 3, [1100.0] * 3) == "+10.00%"  # worse, within bound
    assert ab.cell(WAN, [1000.0] * 3, [1300.0] * 3) == "+30.00%!"  # worse beyond it
    assert ab.cell(KTPS, [10.0] * 3, [9.97] * 3) == "-0.30%"
    assert ab.cell(KTPS, [10.0] * 3, [9.0] * 3) == "-10.00%!"


def test_host_metric_cells_keep_their_rule():
    assert ab.cell(HOST, [100.0, 101.0, 102.0], [100.0, 101.0, 102.0]) == "+0.00%"
    assert ab.cell(HOST, [100.0, 101.0, 102.0], [130.0, 131.0, 132.0]) == "+29.70%!"
    # The parent's own spread is wider than the bound: unresolved.
    assert ab.cell(HOST, [50.0, 100.0, 150.0], [60.0, 100.0, 140.0]) == "+0.00%?"


def test_only_simulated_clock_metrics_are_exact():
    assert ab.is_exact("sim_ktps") and ab.is_exact("committed_share")
    assert not ab.is_exact("host_us_per_tx") and not ab.is_exact("setup_s")


def test_both_trees_are_byte_compiled_before_the_first_run(tmp_path, monkeypatch):
    """An import writes no ``.pyc`` under ``PYTHONDONTWRITEBYTECODE``, so
    a fresh parent export would recompile every module in every run while
    the working tree reuses its ``__pycache__``; both trees are compiled
    before the first pair instead."""
    trees = []
    for side in ("parent", "change"):
        for folder in ("src/pkg", "benchmarks/ledger"):
            os.makedirs(tmp_path / side / folder)
            (tmp_path / side / folder / "mod.py").write_text("X = 1\n")
        trees.append(str(tmp_path / side))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(ab, "ROOT", trees[1])
    runs = []

    def run_once(tree, workload, seed):
        for folder in ("src/pkg", "benchmarks/ledger"):
            assert any(
                name.startswith("mod.") and name.endswith(".pyc")
                for name in os.listdir(os.path.join(tree, folder, "__pycache__"))
            )
        runs.append(tree)
        return {"host_us_per_tx": 1.0}

    monkeypatch.setattr(ab, "run_once", run_once)
    ab.run_pairs(trees[0], "w", None, 2)
    assert runs == [trees[0], trees[1], trees[1], trees[0]]
