"""Set-up probe, run in a fresh interpreter by run.py.

    python3 -I perfbench/setup_child.py <root> <workload>

Imports the engine from <root>/src, loads the workload's files, then
prints one JSON line of layer times in milliseconds and exits.  The
parent's clock from process start to that line is the set-up time.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
root, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, root + "/src")
import effparse.combine  # noqa: E402
import effparse.diagrams  # noqa: E402
import effparse.lambda_eval  # noqa: E402
import effparse.lexicon  # noqa: E402

times = {"effparse.import_ms": (perf_counter() - t0) * 1e3}
data = root + "/data/"
LOADERS = (("lexicon.load_language_ms", effparse.lexicon.load_language, "english.lang"),
           ("lexicon.load_model_ms", effparse.lexicon.load_model, "solar.model"),
           ("combine.load_syntax_ms", effparse.combine.load_syntax, "english.cfg"))
LOADED = {"corpus": 3, "ambiguity": 2, "confluence": 0}  # leading LOADERS used
for name, load, file in LOADERS[:LOADED[workload]]:
    t = perf_counter()
    load(data + file)
    times[name] = (perf_counter() - t) * 1e3
print(json.dumps(times), flush=True)
