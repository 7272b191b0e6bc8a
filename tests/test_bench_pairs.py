import importlib.util
import json

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


def test_both_checkouts_are_byte_compiled_before_their_first_run(monkeypatch, tmp_path):
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "ops_per_s", "unit": "op/s", "better": "higher",'
        ' "bound": 0.25}]}')
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((argv[1:], cwd))
        stdout = ('{"correct": true, "attempted": 3, "failed": 0,'
                  ' "metrics": {"ops_per_s": {"value": 1.0}}}\n')
        return type("Done", (), {"stdout": stdout})()
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]), "--workload", "corpus",
                             "--pairs", "2", "--seconds", "1", "--out", str(out)]) == 0
    compile_call = ["-m", "compileall", "-q", "src", "perfbench"]
    for path in checkouts.values():
        own = [argv for argv, cwd in calls if cwd == path]
        assert own.count(compile_call) == 1
        assert own[0] == compile_call  # before the warm-up and every timed start
        assert bench_pairs.command("corpus", 1, 2)[1:] in own  # the warm-up ran there
    assert "compileall" in json.loads(out.read_text())["method"]


PER_LAYER = [{"name": "lambda_eval.force_ms", "unit": "ms", "better": "lower"},
             {"name": "lambda_eval.eval_errors", "unit": "count", "better": "lower"},
             {"name": "combine.derivations", "unit": "count", "better": "higher"}]


def traced_run(force_ms, derivations=333):
    return {"started": "12:00:00", "interpreter_start_s": 0.01, "correct": True,
            "attempted": 16, "failed": 0,
            "metrics": {"lambda_eval.force_ms": force_ms, "lambda_eval.eval_errors": 0,
                        "combine.derivations": derivations, "trace.ops": 8}}


def test_a_per_layer_summary_has_quartiles_and_pairs_but_no_bound_status():
    runs = {"parent": [traced_run(x) for x in (40.0, 44.0, 42.0, 46.0, 38.0)],
            "change": [traced_run(x) for x in (39.0, 45.0, 30.0, 35.0, 36.0)]}
    s = bench_pairs.summarise_workload("ambiguity", 7, runs, PER_LAYER)
    assert set(s["metrics"]) == {m["name"] for m in PER_LAYER}
    force = s["metrics"]["lambda_eval.force_ms"]
    assert force == {"unit": "ms",
                     "parent": {"median": 42.0, "q1": 40.0, "q3": 44.0},
                     "change": {"median": 36.0, "q1": 35.0, "q3": 39.0},
                     "change_better_pairs": 4,  # all but the pair 44 -> 45
                     "parent_runs": [40.0, 44.0, 42.0, 46.0, 38.0],
                     "change_runs": [39.0, 45.0, 30.0, 35.0, 36.0]}
    # a count that reads 0 on both sides summarises too, with no pair better
    errors = s["metrics"]["lambda_eval.eval_errors"]
    assert errors["parent"] == errors["change"] == {"median": 0, "q1": 0, "q3": 0}
    assert errors["change_better_pairs"] == 0
    assert s["metrics"]["combine.derivations"]["change_better_pairs"] == 0


def test_trace_pairs_traced_runs_and_summarises_the_per_layer_metrics(monkeypatch,
                                                                      tmp_path):
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for path in checkouts.values():
        path.mkdir()
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": END_TO_END, "per_layer": PER_LAYER}))
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append(argv[1:])
        run = traced_run(40.0 + len(calls))
        stdout = json.dumps({**run, "metrics": {k: {"value": v}
                                                for k, v in run["metrics"].items()}})
        return type("Done", (), {"stdout": stdout + "\n"})()
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]),
                             "--change", str(checkouts["change"]), "--workload", "ambiguity",
                             "--pairs", "2", "--seconds", "1", "--seed", "7", "--trace",
                             "--out", str(out)]) == 0
    runs = [argv for argv in calls if argv[0] == "perfbench/run.py"]
    assert len(runs) == 6  # a warm-up per side and two pairs
    assert all(argv[-2:] == ["--trace", "1"] for argv in runs)
    report = json.loads(out.read_text())
    assert report["command"].endswith("--trace 1")
    assert "'--trace 1' run" in report["method"]
    metrics = report["workloads"]["ambiguity/seed7"]["metrics"]
    assert set(metrics) == {m["name"] for m in PER_LAYER}
    assert not any("status" in m or "bound" in m for m in metrics.values())
