"""mfgsolve benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sis_descent --seed 1 --seconds 20 --trace 0

Every set-up and every solve runs in a fresh ``worker.py`` process, one at a
time, with BLAS pinned to one thread.  With ``--trace 0`` the workload is
solved repeatedly until ``--seconds`` have passed (at least once) and the
end-to-end metrics are printed; set-up alone is also repeated
``SETUP_REPEATS`` times after one discarded warm-up.  With ``--trace 1`` one
untraced and one traced solve run, and the per-layer metrics of the traced
one are printed together with the tracing overhead.  The last line of
standard output is one JSON object; the lines before it are a readable
report, which is also written to ``perfbench/out/<workload>/report.json``.

Exit codes: 0 all checks passed, 1 a correctness check failed, 2 the
benchmark could not run (missing sources, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import affine  # noqa: E402
from tracer import REPEAT_NAMES, SPAN_NAMES  # noqa: E402

TOLERANCE = 1e-12  # allowed drift from the recorded exploitability series
SIS_TARGET = 0.085  # first reached at iteration 502 of 2000 on the reference
NUM_GAMES = 16  # affine games with a recorded reference; the seed picks one
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0  # every run ends, workers killed, before this
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
AFFINE = {
    "full": {"states": 100, "actions": 4, "horizon": 20, "iterations": 100},
    "toy": {"states": 20, "actions": 4, "horizon": 20, "iterations": 10},
}
AFFINE_ETA = 0.1
TAXI_TOY = {
    "iterations": 1,
    "particles": {"num_meanfields": 1, "num_particles": 20},
    "eval_episodes": 5,
    "dqn": {"epochs": 2},
}
SIS_TOY = {"prior_descent": {"outer": 2, "inner": 20, "c": 1.2}}
WORKLOADS = ("sis_descent", "affine_s100", "taxi_dqn")
EXTRA_LAYER_METRICS = {
    "rl.dqn_train.env_steps": "count",
    "rl.dqn_train.diverged": "count",
    "rl.dqn_train.iter_share": "ratio",
    "rl.trainings_per_iter": "count/iter",
    "trace.overhead_ratio": "ratio",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in REPEAT_NAMES:
        units[f"{name}.repeat_ratio"] = "ratio"
    units.update(EXTRA_LAYER_METRICS)
    return units


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "iter_ms_p50": "ms", "peak_rss_mb": "MB"}
# Printed where they apply, but not gated: a gated metric must exist on every workload.
REPORT_ONLY_UNITS = {"iter_ms_p90": "ms", "time_to_target_s": "s"}


# -- inputs -------------------------------------------------------------------


def _write_config(doc: dict, out: str) -> str:
    path = os.path.join(out, "config.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    return path


def prepare(workload: str, seed: int, toy: bool, out: str) -> tuple[dict, str | None, int]:
    """Generate the workload's inputs from the seed.

    Returns the job fields for ``worker.py``, the reference key (None when
    the outputs are random and only checked for finiteness) and the number of
    iterations one solve runs.
    """
    if workload == "sis_descent":
        path = os.path.join(ROOT, "configs", "sis_prior_descent.json")
        with open(path) as f:
            doc = json.load(f)
        if toy:
            doc.update(SIS_TOY)
            path = _write_config(doc, out)
        pd = doc["prior_descent"]
        return {"kind": "cli", "config": path}, "shipped", pd["outer"] * pd["inner"]
    if workload == "affine_s100":
        size = AFFINE["toy" if toy else "full"]
        game = seed % NUM_GAMES
        inputs = os.path.join(out, "inputs.npz")
        np.savez(inputs, **affine.generate(game, size["states"], size["actions"]))
        job = {
            "kind": "affine",
            "inputs": inputs,
            "horizon": size["horizon"],
            "iterations": size["iterations"],
            "eta": AFFINE_ETA,
        }
        return job, str(game), size["iterations"]
    with open(os.path.join(HERE, "configs", "taxi_bench.json")) as f:
        doc = json.load(f)
    doc["seeds"] = [seed]
    if toy:
        doc.update(TAXI_TOY)
    return {"kind": "cli", "config": _write_config(doc, out)}, None, doc["iterations"]


# -- workers ------------------------------------------------------------------


def run_worker(job: dict, out: str, tag: str, deadline: float) -> dict | None:
    """Run one worker process to completion; None if it failed or timed out."""
    job = dict(job, src=os.path.join(ROOT, "src"), result=os.path.join(out, f"{tag}.result.json"))
    if job["mode"] == "solve":
        job["out_dir"] = os.path.join(out, tag)
        shutil.rmtree(job["out_dir"], ignore_errors=True)
        os.makedirs(job["out_dir"])
    job_path = os.path.join(out, f"{tag}.job.json")
    with open(job_path, "w") as f:
        json.dump(job, f)
    log_path = os.path.join(out, f"{tag}.log")
    env = dict(os.environ, **WORKER_ENV)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job_path],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=ROOT,
                timeout=max(1.0, deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            print(f"worker {tag} timed out; log: {log_path}", file=sys.stderr)
            return None
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        with open(log_path) as f:
            tail = f.read()[-2000:]
        print(f"worker {tag} failed (exit {proc.returncode}):\n{tail}", file=sys.stderr)
        return None
    with open(job["result"]) as f:
        return json.load(f)


# -- correctness --------------------------------------------------------------


def check(result: dict | None, expected: dict | None, planned: int) -> tuple[int, int, list[str]]:
    """Count (attempted, failed) iterations of one solve and list problems.

    An iteration fails if the solve raised, its exploitability (or, without
    a reference, its standard error) is not finite, or it differs from the
    reference by more than ``TOLERANCE``.  A wrong final ``converged`` or
    ``limit_cycle_period`` fails the last iteration.
    """
    if result is None:
        return planned, planned, ["solve did not finish"]
    if result["exit_code"] != 0 or result["failures"]:
        return planned, planned, [f"solve failed: {result['failures']}"]
    values = result["exploitability"]
    attempted = max(planned, len(values))
    bad = {i for i, x in enumerate(values) if not math.isfinite(x)}
    bad |= set(range(len(values), planned))
    problems = []
    if expected is None:
        errors = result["std_error"]
        if len(errors) != len(values):
            bad |= set(range(attempted))
            problems.append(f"{len(errors)} standard errors for {len(values)} iterations")
        bad |= {i for i, e in enumerate(errors) if e is None or not math.isfinite(e)}
    else:
        want = expected["exploitability"]
        bad |= {i for i in range(len(want), len(values))}
        bad |= {i for i, (x, y) in enumerate(zip(values, want)) if not abs(x - y) <= TOLERANCE}
        for key in ("converged", "limit_cycle_period"):
            if result[key] != expected[key]:
                bad.add(attempted - 1)
                problems.append(f"{key} is {result[key]!r}, reference {expected[key]!r}")
    if bad:
        problems.append(f"{len(bad)} of {attempted} iterations failed, first at {min(bad)}")
    return attempted, len(bad), problems


# -- metrics ------------------------------------------------------------------


def end_to_end(setups: list[float], solves: list[dict], workload: str) -> tuple[dict, dict]:
    """Gated metrics (every workload) and report-only extras."""
    iterations = [x for s in solves for x in s["elapsed_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(s["run_s"] for s in solves),
        "iter_ms_p50": statistics.median(iterations) * 1e3,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in solves),
    }
    extras = {
        "samples": {
            "setup_s": len(setups),
            "run_s": len(solves),
            "iter_ms_p50": len(iterations),
        }
    }
    if min(len(s["elapsed_s"]) for s in solves) >= 100:
        extras["iter_ms_p90"] = statistics.quantiles(iterations, n=10)[-1] * 1e3
    if workload == "sis_descent":
        times = []
        for s in solves:
            hit = next((i for i, x in enumerate(s["exploitability"]) if x <= SIS_TARGET), None)
            if hit is not None:
                times.append(sum(s["elapsed_s"][: hit + 1]))
        if times:
            extras["time_to_target_s"] = statistics.median(times)
            extras["time_to_target_exploitability"] = SIS_TARGET
    return metrics, extras


def per_layer(summary: dict, traced: dict, untraced: dict) -> dict:
    spans, counts = summary["spans"], summary["counts"]
    zero = {"calls": 0, "self_ms": 0.0, "total_ms": 0.0}
    values = {}
    for name in SPAN_NAMES:
        s = spans.get(name, zero)
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.self_ms"] = s["self_ms"]
    for name in REPEAT_NAMES:
        calls = spans.get(name, zero)["calls"]
        values[f"{name}.repeat_ratio"] = counts.get(f"{name}.repeats", 0) / calls if calls else 0.0
    train = spans.get("rl.dqn_train", zero)
    iteration_s = sum(traced["elapsed_s"])
    values["rl.dqn_train.env_steps"] = counts.get("rl.dqn_train.env_steps", 0)
    values["rl.dqn_train.diverged"] = counts.get("rl.dqn_train.raised.TrainingDivergedError", 0)
    values["rl.dqn_train.iter_share"] = train["total_ms"] / 1e3 / iteration_s if iteration_s else 0.0
    iterations = summary["iterations"]
    values["rl.trainings_per_iter"] = train["calls"] / iterations if iterations else 0.0
    values["trace.overhead_ratio"] = traced["run_s"] / untraced["run_s"] - 1.0
    return values


def environment(results: list[dict]) -> dict:
    blas = next((r for r in results if "blas" in r), {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("blas"),
        "blas_threads": blas.get("blas_threads"),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    """Commit of the checkout, read from ``.git`` directly (no search upward)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument(
        "--reference",
        default=os.path.join(HERE, "reference.json"),
        help="recorded exploitability series to check against",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    missing = [
        p
        for p in (os.path.join(ROOT, "src", "mfgsolve", "__init__.py"), args.reference)
        if not os.path.exists(p)
    ]
    if missing:
        print(f"cannot run: missing {missing}", file=sys.stderr)
        return 2
    with open(args.reference) as f:
        reference = json.load(f)
    out = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        job, ref_key, planned = prepare(args.workload, args.seed, args.toy, out)
    except OSError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    expected = None
    if ref_key is not None:
        expected = reference[args.workload]["toy" if args.toy else "full"][ref_key]

    setups: list[float] = []
    if not args.trace:
        run_worker(dict(job, mode="setup"), out, "warmup", deadline)
        for i in range(SETUP_REPEATS):
            r = run_worker(dict(job, mode="setup"), out, f"setup{i}", deadline)
            if r is not None:
                setups.append(r["setup_s"])
    solves: list[dict | None] = []
    while True:
        tag = "traced" if args.trace and solves else f"solve{len(solves)}"
        t0 = time.perf_counter()
        solves.append(run_worker(dict(job, mode="solve", trace=tag == "traced"), out, tag, deadline))
        last = time.perf_counter() - t0
        if solves[-1] is None or (args.trace and len(solves) == 2):
            break
        if not args.trace and time.perf_counter() + last > started + args.seconds:
            break

    attempted = failed = 0
    problems = []
    for s in solves:
        a, b, p = check(s, expected, planned)
        attempted, failed = attempted + a, failed + b
        problems += p
    ok = [s for s in solves if s is not None]
    setups += [s["setup_s"] for s in ok]
    correct = failed == 0 and not problems and len(ok) == len(solves)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "toy": args.toy,
        "environment": environment(ok),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
    }
    metrics = {}
    if correct and args.trace:
        values = per_layer(ok[1]["trace"], ok[1], ok[0])
        units = layer_metric_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        report["span_count"] = ok[1]["trace"]["span_count"]
    elif ok and not args.trace:
        values, extras = end_to_end(setups, ok, args.workload)
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
        report.update(extras)
    report["metrics"] = metrics
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(report, f, indent=2)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    samples = report.get("samples", {})
    for name, m in metrics.items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}{n}")
    for name, unit in REPORT_ONLY_UNITS.items():
        if name in report:
            print(f"  {name:42s} {report[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':42s} {report['fail_ratio']:>14.6g} ratio ({failed}/{attempted})")
    print(f"  environment {json.dumps(report['environment'])}")
    for p in problems:
        print(f"  check failed: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
