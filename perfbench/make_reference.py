"""Regenerate ``reference.json``, the output gate of the benchmark.

    python3 perfbench/make_reference.py

Run from the checkout root at a commit whose outputs are known good.  For
each reference (the heis job, the pro2 job, the lgroup stream, and their
smoke sizes) it runs one pass for each of seeds 0 to ``SEEDS`` - 1 and
records the output digest, the seed-independent shape digest and the
number of ops per pass.  Smoke references cover seed 0 only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run

REFERENCES = {"heis": "heis-warm", "pro2": "pro2-law", "lgroup": "lgroup-stream"}
SEEDS = 100


def one_pass(root, state, workload, seed, smoke, table):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--scratch", os.path.join(state, "tmp")]
    args += (["--smoke"] if smoke else []) + (["--warm-table", table] if table else [])
    worker = run.Worker(root, args, run.DEADLINE_S)
    if worker.result is None or "error" in worker.result["passes"][0]:
        raise RuntimeError(f"{workload} seed {seed}: the pass failed")
    return worker.result["passes"][0]


def main():
    root = os.getcwd()
    state = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(state, "tmp"), exist_ok=True)
    digest, _ = run.source_context(root)
    out = {}
    for smoke in (False, True):
        for key, workload in REFERENCES.items():
            table = None
            if workload == "heis-warm":
                table = run.warm_table(root, state, digest, smoke,
                                       time.perf_counter() + run.DEADLINE_S)
            seeds = [0] if smoke else list(range(SEEDS))
            with ThreadPoolExecutor(max_workers=2) as pool:
                passes = list(pool.map(
                    lambda s: one_pass(root, state, workload, s, smoke, table), seeds))
            shapes = {p["shape"] for p in passes}
            ops = {p["attempted"] for p in passes}
            if len(shapes) != 1 or len(ops) != 1:
                raise RuntimeError(f"{key}: the output shape depends on the seed")
            name = key + ("-smoke" if smoke else "")
            out[name] = {
                "ops": ops.pop(),
                "shape": shapes.pop(),
                "digests": {str(s): p["digest"] for s, p in zip(seeds, passes)},
            }
            print(f"{name}: {len(seeds)} seeds", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
