import importlib.util

import pytest

from .conftest import ROOT

SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25},
              {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side, workload, warm_up):
        calls.append((workload, side, warm_up))
        return {"n": len(calls)}
    warm_ups, runs = bench_pairs.run_pairs(["corpus", "ambiguity"], 3, run)
    order = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    for w, workload in enumerate(["corpus", "ambiguity"]):
        block = calls[8 * w:8 * (w + 1)]
        assert block[:2] == [(workload, "parent", True), (workload, "change", True)]
        assert [side for _, side, warm in block[2:]] == [s for pair in order for s in pair]
        assert not any(warm for _, _, warm in block[2:])
        assert [r["n"] for r in runs[workload]["parent"]] == [8 * w + n for n in (3, 6, 7)]
    assert [(r["workload"], r["side"]) for r in warm_ups] == [
        ("corpus", "parent"), ("corpus", "change"),
        ("ambiguity", "parent"), ("ambiguity", "change")]


def test_a_metric_summary_reads_medians_quartiles_and_pairs():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [14.0, 11.0, 15.0, 16.0, 13.0]
    s = bench_pairs.summarise_metric(parent, change, "op/s", "higher", 0.25)
    # inclusive quartiles of 9..13 and of 11, 13..16
    assert s["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert s["change"] == {"median": 14.0, "q1": 13.0, "q3": 15.0}
    assert s["change_better_pairs"] == 4  # all but the pair 12 -> 11
    assert s["change_worse_by"] == pytest.approx(-3 / 11, abs=1e-4)
    assert s["parent_spread"] == pytest.approx(2 / 11, abs=1e-4)
    assert s["clears_parent_iqr"] is True  # 14 - 11 > 12 - 10
    assert s["status"] == "within bound"
    assert s["parent_runs"] == parent and s["change_runs"] == change


def test_a_lower_is_better_metric_counts_a_rise_as_worse():
    parent = [100.0, 101.0, 99.0, 100.0]
    change = [130.0, 131.0, 129.0, 98.0]
    s = bench_pairs.summarise_metric(parent, change, "ms", "lower", 0.25)
    assert s["change_better_pairs"] == 1
    assert s["change_worse_by"] == pytest.approx(0.295, abs=1e-4)
    assert s["clears_parent_iqr"] is False
    assert s["status"] == "worse beyond bound"


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    # a bimodal parent: its quartiles lie 0.6 of its median apart
    parent = [0.08, 0.14, 0.08, 0.14, 0.08, 0.14]
    change = [0.20, 0.20, 0.20, 0.20, 0.20, 0.20]
    s = bench_pairs.summarise_metric(parent, change, "s", "lower", 0.25)
    assert s["parent_spread"] > 0.25
    assert s["status"] == "unresolved (parent spread exceeds bound)"


def test_a_workload_summary_counts_operations_and_keeps_every_run():
    def run(ops, failed, correct=True):
        return {"started": "12:00:00", "interpreter_start_s": 0.01, "correct": correct,
                "attempted": 100, "failed": failed,
                "metrics": {"ops_per_s": ops, "op_ms_p50": 1000 / ops}}
    runs = {"parent": [run(20, 0), run(22, 0), run(21, 0)],
            "change": [run(30, 0), run(31, 1, correct=False), run(29, 0)]}
    s = bench_pairs.summarise_workload("ambiguity", 1, runs, END_TO_END)
    assert s["pairs"] == 3 and s["seed"] == 1 and s["started"] == "12:00:00"
    assert s["all_correct"] is False
    assert s["failed_ops"] == {"parent": 0, "change": 1}
    assert s["attempted_ops"] == {"parent": 300, "change": 300}
    assert set(s["metrics"]) == {"ops_per_s", "op_ms_p50"}
    assert s["metrics"]["ops_per_s"]["change_better_pairs"] == 3
    assert s["metrics"]["op_ms_p50"]["change_better_pairs"] == 3
    assert s["runs"] is runs


def test_a_workload_summary_reads_each_sides_bare_interpreter_start():
    def run(start):
        return {"started": "12:00:00", "interpreter_start_s": start, "correct": True,
                "attempted": 10, "failed": 0, "metrics": {"ops_per_s": 5.0, "op_ms_p50": 200.0}}
    runs = {"parent": [run(x) for x in (0.012, 0.010, 0.011, 0.013, 0.009)],
            "change": [run(x) for x in (0.02, 0.03, 0.025, 0.021, 0.05)]}
    s = bench_pairs.summarise_workload("corpus", 1, runs, END_TO_END)
    assert s["interpreter_start_s"] == {
        "parent": {"median": 0.011, "q1": 0.01, "q3": 0.012},
        "change": {"median": 0.025, "q1": 0.021, "q3": 0.03}}
    assert set(s["metrics"]) == {"ops_per_s", "op_ms_p50"}  # not an end-to-end metric


def test_each_run_times_a_bare_interpreter_start_just_before_it(monkeypatch, tmp_path):
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv[1:], cwd))
        stdout = '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n'
        return type("Done", (), {"stdout": stdout})()
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_once(tmp_path, "corpus", 1, 0.5)
    assert calls == [(["-I", "-c", "pass"], tmp_path),
                     (bench_pairs.command("corpus", 1, 0.5)[1:], tmp_path)]
    assert result["interpreter_start_s"] >= 0 and result["attempted"] == 3
