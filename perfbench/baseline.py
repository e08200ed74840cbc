"""Run every workload over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 perfbench/baseline.py --seeds 10 [--output perfbench/BENCH_baseline.json]

For each workload, ``run.py --trace 0`` runs once per seed (seeds 1..N) and
``run.py --trace 1`` runs twice with seed 1, so that the traced counts can be
compared.  For every end-to-end metric the summary holds the per-seed values,
their median, quartiles and spread (interquartile range over median, the
figure the bounds in BENCHMARK.json are compared with).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    with open(os.path.join(run.HERE, "out", workload, "report.json")) as f:
        return json.load(f)


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--output", default=os.path.join(run.HERE, "BENCH_baseline.json"))
    p.add_argument("--workloads", nargs="*", default=list(run.WORKLOADS))
    args = p.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for workload in args.workloads:
        reports = [bench(workload, seed, seconds, 0) for seed in summary["seeds"]]
        traced = [bench(workload, 1, seconds, 1) for _ in range(2)]
        e2e = {
            name: spread([r["metrics"][name]["value"] for r in reports])
            for name in run.END_TO_END_UNITS
        }
        extras = {
            name: statistics.median(r[name] for r in reports)
            for name in ("iter_ms_p90", "time_to_target_s")
            if name in reports[0]
        }
        layers = {k: m["value"] for k, m in traced[0]["metrics"].items()}
        counts_repeat = all(
            traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]
            for k in layers
            if not k.endswith(("_ms", "overhead_ratio", "iter_share"))
        )
        summary["workloads"][workload] = {
            "end_to_end": e2e,
            "report_only": extras,
            "per_layer_seed1": layers,
            "traced_counts_repeat": counts_repeat,
        }
        summary["environment"] = reports[0]["environment"]
        for name, s in e2e.items():
            print(f"{workload:12s} {name:12s} median {s['median']:.6g} spread {s['spread']:.4f}")
        print(f"{workload:12s} traced counts repeat: {counts_repeat}")
    with open(args.output, "w") as f:
        json.dump(summary, f, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
