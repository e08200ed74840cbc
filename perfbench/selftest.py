"""Self-test of the benchmark at toy sizes (about half a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that every workload runs, passes its correctness checks and prints
exactly the metric names declared in ``BENCHMARK.json`` (traced and
untraced), and that a corrupted reference makes the check fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def bench(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result = bench(workload, trace)
            label = f"{workload} trace={trace}"
            if code != 0 or not result.get("correct"):
                errors.append(f"{label}: exit {code}, result {result}")
            elif sorted(result["metrics"]) != sorted(declared[trace]):
                errors.append(f"{label}: printed metrics differ from BENCHMARK.json")
            print(f"{label}: exit {code}")

    with open(os.path.join(run.HERE, "reference.json")) as f:
        reference = json.load(f)
    reference["sis_descent"]["toy"]["shipped"]["exploitability"][5] += 1e-9
    os.makedirs(os.path.join(run.HERE, "out"), exist_ok=True)
    corrupted = os.path.join(run.HERE, "out", "corrupted_reference.json")
    with open(corrupted, "w") as f:
        json.dump(reference, f)
    code, result = bench("sis_descent", 0, "--reference", corrupted)
    if code == 0 or result.get("correct") is not False or not result.get("failed"):
        errors.append(f"corrupted reference not detected: exit {code}, result {result}")
    print(f"corrupted reference: exit {code}, failed {result.get('failed')}")

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
