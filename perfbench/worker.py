"""Set up, and optionally solve, one workload in a fresh process.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job (written by
``run.py``) names the source tree, the workload kind and its generated
inputs; the worker writes its measurements to ``job["result"]``.

``setup_s`` runs from the top of this file, before numpy or mfgsolve are
imported, until the environment is built: import, config load and
validation, and environment construction (for the affine game also loading
the generated arrays and ``validate_dynamics``).  Interpreter start-up is not
included.  ``run_s`` is the wall time of the solve call alone.
"""

import time

START = time.perf_counter()

import csv  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _blas(np) -> dict:
    """BLAS library name and the thread count it reports (None if unknown)."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": name, "blas_threads": threads}


def _setup(job: dict):
    import numpy as np

    import mfgsolve
    import mfgsolve.cli  # noqa: F401  (loads every layer the tracer patches)

    src = os.path.realpath(job["src"])
    if not os.path.realpath(mfgsolve.__file__).startswith(src + os.sep):
        raise RuntimeError(f"mfgsolve imported from {mfgsolve.__file__}, not {src}")
    if job["kind"] == "cli":
        cfg = mfgsolve.cli.load_config(job["config"])
        problems = mfgsolve.cli.validate_config(cfg)
        if problems:
            raise RuntimeError(f"invalid config {job['config']}: {problems}")
        if cfg["env"] == "taxi":
            return mfgsolve.make_taxi()
        return mfgsolve.envs.BUILTIN_FACTORIES[cfg["env"]]()
    with np.load(job["inputs"]) as data:
        env = mfgsolve.make_affine_env(
            name="affine",
            horizon=job["horizon"],
            initial_dist=data["initial_dist"],
            reward_base=data["reward_base"],
            transition_base=data["transition_base"],
            reward_mu_coef=data["reward_mu_coef"],
            transition_mu_coef=data["transition_mu_coef"],
        )
    env.validate_dynamics()
    return env


def _capture_std_errors(std_errors: list) -> None:
    """Keep the standard error of every stochastic exploitability report,
    which the DQN loop's CSV leaves out."""
    from tracer import patch_everywhere

    def wrap(fn):
        def exploitability_stochastic(*args, **kwargs):
            report = fn(*args, **kwargs)
            std_errors.append(report.std_error)
            return report

        return exploitability_stochastic

    patch_everywhere("mfgsolve.exploitability", "exploitability_stochastic", wrap)


def _solve_cli(job: dict) -> dict:
    import mfgsolve.cli

    out = job["out_dir"]
    start = time.perf_counter()
    code = mfgsolve.cli.run(job["config"], output_dir=out, workers=1)
    run_s = time.perf_counter() - start
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    cells = list(manifest["cells"].values())
    rows = []
    if len(cells) == 1:
        with open(os.path.join(out, cells[0]["csv"]), newline="") as f:
            rows = list(csv.DictReader(f))
    return {
        "run_s": run_s,
        "exit_code": code,
        "failures": [f["error"] for f in manifest["failures"]],
        "exploitability": [float(r["exploitability"]) for r in rows],
        "elapsed_s": [float(r["elapsed_s"]) for r in rows],
        "converged": cells[0]["converged"] if len(cells) == 1 else None,
        "limit_cycle_period": cells[0]["limit_cycle_period"] if len(cells) == 1 else None,
    }


def _solve_affine(job: dict, env) -> dict:
    import mfgsolve.solvers

    cfg = mfgsolve.solvers.SolverConfig(
        max_iterations=job["iterations"], mode="boltzmann", eta=job["eta"]
    )
    start = time.perf_counter()
    log = mfgsolve.solvers.boltzmann_iteration(env, cfg)
    run_s = time.perf_counter() - start
    return {
        "run_s": run_s,
        "exit_code": 0,
        "failures": [],
        "exploitability": [r.exploitability for r in log.records],
        "elapsed_s": [r.elapsed_s for r in log.records],
        "converged": log.converged,
        "limit_cycle_period": log.limit_cycle_period,
    }


def main(job_path: str) -> None:
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    env = _setup(job)
    result = {"setup_s": time.perf_counter() - START}
    if job["mode"] == "solve":
        import numpy as np

        result.update(_blas(np))
        std_errors: list = []
        _capture_std_errors(std_errors)
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if job["kind"] == "cli":
            result.update(_solve_cli(job))
        else:
            result.update(_solve_affine(job, env))
        result["std_error"] = std_errors
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.save(os.path.join(job["out_dir"], "spans.npz"))
    with open(job["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
