"""Record the exploitability series that ``run.py`` checks solver outputs against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

Solves the shipped SIS config and every affine game the seed can select,
at full and toy size, and writes ``perfbench/reference.json``.  Run it only
on the commit whose outputs define correct behaviour: afterwards every
series must match within ``run.TOLERANCE``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run

RECORDED = {"sis_descent": [0], "affine_s100": list(range(run.NUM_GAMES))}


def main() -> int:
    reference = {"recorded_at": run.git_revision(), "tolerance": run.TOLERANCE}
    out = os.path.join(run.HERE, "out", "record")
    for workload, seeds in RECORDED.items():
        reference[workload] = {}
        for size in ("full", "toy"):
            entries = {}
            for seed in seeds:
                shutil.rmtree(out, ignore_errors=True)
                os.makedirs(out)
                job, key, _ = run.prepare(workload, seed, size == "toy", out)
                deadline = time.perf_counter() + run.TIME_LIMIT_S
                result = run.run_worker(dict(job, mode="solve", trace=False), out, "solve", deadline)
                if result is None or result["exit_code"] != 0:
                    print(f"{workload} {size} seed {seed}: solve failed", file=sys.stderr)
                    return 1
                entries[key] = {
                    k: result[k] for k in ("exploitability", "converged", "limit_cycle_period")
                }
                print(f"{workload} {size} {key}: {len(result['exploitability'])} iterations")
            reference[workload][size] = entries
    with open(os.path.join(run.HERE, "reference.json"), "w") as f:
        json.dump(reference, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
