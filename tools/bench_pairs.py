"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload ambiguity [--workload corpus ...] --pairs 10 --seconds 20 \\
        [--seed 1] [--parent-commit SHA] \\
        [--change-text TEXT] [--claim TEXT] --out BENCH_name.json

Each checkout is the root of a copy of the repository (say, the parent
commit from ``git archive`` and the change from the working tree).  For
each workload the script runs ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0`` in each checkout: one warm-up run of
WARM_UP_SECONDS per side, then the pairs.  Even pairs run the parent
first and odd pairs the change first, and the two sides never run at
the same time.  Just before each run it times one bare ``python3 -I -c
pass`` in the same checkout, so that a move of ``setup_s`` can be told
from a move of the interpreter's own start.  It writes one JSON file with
the summary of every end-to-end metric that ``BENCHMARK.json`` of the
change declares, the median and quartiles of each side's bare start as
``interpreter_start_s``, and every raw run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

METHOD = (
    "{pairs} alternating parent/change pairs per workload, each run a fresh "
    "process in its own checkout; one {warm}-s warm-up run per side and "
    "workload before the pairs wrote both checkouts' byte-code caches; the two "
    "sides never ran at the same time; even pairs ran the parent first, odd "
    "pairs the change first; quartiles are statistics.quantiles(n=4, "
    "method='inclusive') over one side's runs; change_better_pairs counts "
    "pairs where the change reads better; change_worse_by is the relative "
    "difference of the medians, signed so that positive is worse; "
    "parent_spread is the parent's quartile distance over its median, and a "
    "metric whose parent_spread exceeds its bound is reported as unresolved; "
    "clears_parent_iqr says whether the change's median is better than the "
    "parent's by more than the parent's quartile distance; interpreter_start_s "
    "is the wall time of one bare 'python3 -I -c pass' in the same checkout just "
    "before each run")
SIDES = ("parent", "change")
WARM_UP_SECONDS = 2  # enough to write both checkouts' byte-code caches


def command(workload: str, seed: int, seconds: float) -> list:
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]


def interpreter_start(checkout: Path) -> float:
    """The wall time, in seconds, of one bare interpreter start in
    ``checkout``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], cwd=checkout, check=True)
    return time.perf_counter() - start


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its time of day, the bare
    interpreter start timed just before it, whether its checks held, its
    operation counts and each metric's value."""
    started = time.strftime("%H:%M:%S")
    bare_start = interpreter_start(checkout)
    proc = subprocess.run(command(workload, seed, seconds), cwd=checkout,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"started": started, "interpreter_start_s": bare_start,
            "correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def run_pairs(workloads, pairs: int, run) -> tuple:
    """``run(side, workload, warm_up)`` for one warm-up run per side and
    then ``pairs`` pairs of each workload, in turn.  Returns the warm-up
    runs and, per workload, each side's runs in pair order."""
    warm_ups, runs = [], {}
    for workload in workloads:
        for side in SIDES:
            warm_ups.append({"workload": workload, "side": side,
                             **run(side, workload, True)})
        runs[workload] = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[workload][side].append(run(side, workload, False))
    return warm_ups, runs


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _rounded(values):
    if isinstance(values, dict):
        return {k: round(v, 4) for k, v in values.items()}
    return [round(v, 4) for v in values]


def summarise_metric(parent: list, change: list, unit: str, better: str,
                     bound: float) -> dict:
    """Compare one metric's runs, ``parent[i]`` and ``change[i]`` being
    pair i."""
    sign = 1 if better == "lower" else -1  # positive differences are worse
    p, c = _quartiles(parent), _quartiles(change)
    worse_by = sign * (c["median"] - p["median"]) / p["median"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    if spread > bound:
        status = "unresolved (parent spread exceeds bound)"
    elif worse_by > bound:
        status = "worse beyond bound"
    else:
        status = "within bound"
    return {
        "unit": unit, "bound": bound, "parent": _rounded(p), "change": _rounded(c),
        "change_better_pairs": sum(sign * (b - a) < 0 for a, b in zip(parent, change)),
        "change_worse_by": round(worse_by, 4),
        "parent_spread": round(spread, 4),
        "clears_parent_iqr": -sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        "status": status,
        "parent_runs": _rounded(parent),
        "change_runs": _rounded(change),
    }


def summarise_workload(workload: str, seed: int, runs: dict, end_to_end: list) -> dict:
    """The summary of one workload's pairs; ``runs`` maps each side to
    its runs and ``end_to_end`` is the ``BENCHMARK.json`` list."""
    parent, change = runs["parent"], runs["change"]
    return {
        "workload": workload, "seed": seed, "pairs": len(parent),
        "started": parent[0]["started"],
        "all_correct": all(r["correct"] for r in parent + change),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "interpreter_start_s": {
            side: _rounded(_quartiles([r["interpreter_start_s"] for r in runs[side]]))
            for side in SIDES},
        "metrics": {
            m["name"]: summarise_metric([r["metrics"][m["name"]] for r in parent],
                                        [r["metrics"][m["name"]] for r in change],
                                        m["unit"], m["better"], m["bound"])
            for m in end_to_end},
        "runs": runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--parent-commit")
    p.add_argument("--change-text", default="")
    p.add_argument("--claim", default="none")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    checkouts = {"parent": args.parent, "change": args.change}
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    def run(side, workload, warm_up):
        seconds = WARM_UP_SECONDS if warm_up else args.seconds
        result = run_once(checkouts[side], workload, args.seed, seconds)
        print(f"{workload} {side}{' warm-up' if warm_up else ''}: "
              f"{result['metrics']['ops_per_s']:.2f} op/s", file=sys.stderr)
        return result

    warm_ups, runs = run_pairs(args.workload, args.pairs, run)
    report = {
        "change": args.change_text,
        "claim": args.claim,
        "parent_commit": args.parent_commit,
        "command": " ".join(["python3", *command("W", args.seed, args.seconds)[1:]]),
        "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
        "method": METHOD.format(pairs=args.pairs, warm=WARM_UP_SECONDS),
        "workloads": {f"{w}/seed{args.seed}": summarise_workload(w, args.seed, runs[w],
                                                                end_to_end)
                      for w in args.workload},
        "warm_up_runs": warm_ups,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
