"""Median import time of the engine's modules over fresh interpreters.

    python3 tools/import_time.py [--runs N] ROOT [ROOT ...]

Each ROOT is the root of a checkout.  For each run and each ROOT, in
turn, the script starts ``python3 -I -X importtime``, puts ROOT/src first
on ``sys.path`` and imports the four modules that
``perfbench/setup_child.py`` imports.  It reads the self time that
``-X importtime`` reports for each module imported after that point and
prints, per ROOT, the median over the runs of each ``effparse.*``
module's self time, of the other modules' summed self time (the standard
library modules that the engine pulls in), and of the total, in ms.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys

MODULES = ("effparse.combine", "effparse.diagrams", "effparse.lambda_eval",
           "effparse.lexicon")
MARK = "import-time-start"
OTHER, TOTAL = "(other modules)", "(total)"


def self_times(stderr: str) -> dict:
    """The self time in µs of each module that ``-X importtime`` lists in
    ``stderr`` after the line ``MARK``."""
    lines = stderr.splitlines()
    times = {}
    for line in lines[lines.index(MARK) + 1:]:
        if not line.startswith("import time:"):
            continue
        own, _, name = line[len("import time:"):].split("|")
        if own.strip().isdigit():  # skips the header line
            times[name.strip()] = int(own)
    return times


def summary_rows(times: dict) -> dict:
    """``times`` (module -> µs) as ms per ``effparse.*`` module, with the
    rest summed under OTHER and everything under TOTAL."""
    rows = {name: us / 1e3 for name, us in times.items() if name.startswith("effparse")}
    rows[OTHER] = sum(us for name, us in times.items()
                      if not name.startswith("effparse")) / 1e3
    rows[TOTAL] = sum(times.values()) / 1e3
    return rows


def medians(runs: list) -> dict:
    """The median of each row over ``runs``, a row missing from a run
    counting as 0."""
    names = {name for rows in runs for name in rows}
    return {name: statistics.median(rows.get(name, 0.0) for rows in runs)
            for name in names}


def import_once(root: str) -> dict:
    code = (f"import sys; sys.path.insert(0, {root + '/src'!r}); "
            f"print({MARK!r}, file=sys.stderr, flush=True); "
            + "; ".join(f"import {m}" for m in MODULES))
    proc = subprocess.run([sys.executable, "-I", "-X", "importtime", "-c", code],
                          capture_output=True, text=True, check=True)
    return summary_rows(self_times(proc.stderr))


def table(roots, results: dict) -> str:
    names = sorted({n for r in results.values() for n in r if n.startswith("effparse")})
    header = "| module | " + " | ".join(roots) + " |"
    lines = [header, "|---" * (len(roots) + 1) + "|"]
    for name in names + [OTHER, TOTAL]:
        cells = " | ".join("-" if name not in results[root] else f"{results[root][name]:.1f}"
                           for root in roots)
        lines.append(f"| {name} | {cells} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("roots", nargs="+")
    p.add_argument("--runs", type=int, default=20)
    args = p.parse_args(argv)
    runs = {root: [] for root in args.roots}
    for _ in range(args.runs):
        for root in args.roots:
            runs[root].append(import_once(root))
    print(f"median self time in ms over {args.runs} fresh interpreters")
    print(table(args.roots, {root: medians(r) for root, r in runs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
