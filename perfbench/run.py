"""The effparse benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload corpus|ambiguity|confluence \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ./src and
the data files are read from ./data.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 runs whole rounds of operations for about S seconds (and at
least MIN_OPS operations) and reports the end-to-end metrics.  --trace 1
runs a fixed number of rounds twice, untraced and then traced, each from
freshly loaded files, and reports per-layer self times, counts and the
tracing overhead; it writes its spans and counts under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from spans import NoTracer, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("corpus", "ambiguity", "confluence")
NEEDED = ("src/effparse/__init__.py", "data/english.lang", "data/solar.model",
          "data/english.cfg")
SETUP_RUNS = 7
MIN_OPS = 100  # so that ten samples lie beyond the p90
TRACE_ROUNDS = {"corpus": 20, "ambiguity": 8, "confluence": 1}

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_LAYERS = ("effparse.import_ms", "lexicon.load_language_ms",
                "lexicon.load_model_ms", "combine.load_syntax_ms")
SPAN_LAYERS = ("combine.parse_forest", "combine.derivations",
               "combine.derivation_term", "lambda_eval.eval_term", "lambda_eval.force",
               "diagrams.from_derivation", "diagrams.eq_normalize",
               "diagrams.enumerate", "diagrams.all_normal_forms")
COUNTS = ("combine.packed_nodes", "combine.mode_cache_entries", "combine.derivations",
          "combine.tree_nodes", "combine.shared_nodes", "lambda_eval.eval_errors",
          "diagrams.cells", "diagrams.planarity_errors", "diagrams.reductions",
          "diagrams.normal_forms", "diagrams.enumerated", "diagrams.oracle_memo_entries")


def _setup_once(workload: str) -> dict:
    """Start a fresh interpreter that imports the engine and loads the
    workload's files; returns its layer times plus the wall time."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-I", str(HERE / "setup_child.py"),
                           str(ROOT), workload],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.stdout.read()
        if proc.wait() != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    times = json.loads(line)
    times["setup_s"] = wall
    return times


def _measure(workload, tracer, seconds=None, rounds=None):
    """Run whole rounds, until ``rounds`` are done or, without it, until
    about ``seconds`` have passed and at least MIN_OPS operations ran.
    Returns (operation times, failed count, problems)."""
    times, failed, problems = [], 0, []
    start = perf_counter()
    r = 0
    while True:
        ops = workload.round(r)
        while True:
            t0 = perf_counter()
            tracer.op_begin()
            payload = next(ops, None)
            if payload is None:
                tracer.op_abort()
                break
            tracer.op_end()
            times.append(perf_counter() - t0)
            bad, found = workload.check(payload)
            failed += bad
            problems += found
        r += 1
        elapsed = perf_counter() - start
        if rounds is not None:
            if r >= rounds:
                break
        elif len(times) >= MIN_OPS and elapsed + 0.5 * elapsed / r >= seconds:
            break
    return times, failed, problems


def _untraced(workload, args, setups):
    workload.fresh(NoTracer())
    times, failed, found = _measure(workload, NoTracer(), seconds=args.seconds)
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    values = {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": 1e3 * statistics.median(times),
        "op_ms_p90": 1e3 * deciles[8],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{args.workload} seed {args.seed}: {len(times)} operations in "
          f"{sum(times):.2f} s measured", file=sys.stderr)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, len(times), failed, found


def _traced(workload, args, setups):
    workload.fresh(NoTracer())
    plain, failed_a, found_a = _measure(workload, NoTracer(),
                                        rounds=TRACE_ROUNDS[args.workload])
    tracer = Tracer()
    workload.fresh(tracer)
    traced, failed_b, found_b = _measure(workload, tracer,
                                         rounds=TRACE_ROUNDS[args.workload])
    self_ms = tracer.self_ms()
    values = {name: statistics.median(s.get(name, 0.0) for s in setups)
              for name in SETUP_LAYERS}
    values.update({f"{name}_ms": self_ms.get(name, 0.0) for name in SPAN_LAYERS})
    values.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    values["perfbench.op_self_ms"] = self_ms.get("op", 0.0)
    values["trace.overhead_ms"] = 1e3 * (sum(traced) - sum(plain))
    values["trace.ops"] = len(traced)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.write(stem.with_suffix(".csv.gz"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": values,
                   "untraced_ms": 1e3 * sum(plain), "traced_ms": 1e3 * sum(traced),
                   "setups": setups}, fh, indent=1)
    metrics = {k: {"value": v, "unit": "ms" if k.endswith("_ms") else "count"}
               for k, v in values.items()}
    return metrics, len(plain) + len(traced), failed_a + failed_b, found_a + found_b


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="the effparse benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [f for f in NEEDED if not (ROOT / f).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import effparse
    if pathlib.Path(effparse.__file__).resolve().parent != ROOT / "src" / "effparse":
        print(f"error: imported effparse from {effparse.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS as CLASSES

    setups = [_setup_once(args.workload) for _ in range(SETUP_RUNS)]
    workload = CLASSES[args.workload](ROOT, args.seed)
    problems = workload.preflight()
    run = _traced if args.trace else _untraced
    metrics, attempted, failed, found = run(workload, args, setups)
    problems += found
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
