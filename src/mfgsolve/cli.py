"""Experiment runner: load a JSON config, execute a solver sweep over
temperatures and seeds, and write machine-readable results.

Per (eta, seed) cell one CSV of per-iteration records is written; a sweep
summary CSV aggregates trailing-window exploitability statistics per
temperature, and a manifest records the fully resolved configuration so a
run can be reproduced from its own output directory.

``validate`` and ``run`` share one plan: the game and the prior are read
once, and every cell is built once from them, unrun; ``run`` runs those
cells in process or sends them, built, to its ``--workers`` pool.

Verbs: ``run``, ``validate``, ``list-envs``.  Exit codes: 0 ok, 1 config
error, 2 runtime failure.  ``MFGSOLVE_OUTPUT_DIR`` overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import sys
import time
from collections.abc import Callable
from functools import partial

import numpy as np

from . import __version__
from .core import Policy
from .envs import BUILTIN_FACTORIES, EnvironmentSpec, load_custom_env, make_taxi
from .envs.base import _process_cpus, _set_table_threads
from .errors import ConfigError, check_number
from .rl.dqn import DqnHyperparams
from .rl.loop import boltzmann_dqn_iteration
from .sim import ParticleConfig
from .solvers import (
    IterationLog,
    PriorDescentConfig,
    SolverConfig,
    boltzmann_iteration,
    exact_fpi,
    prior_descent,
    resolve_prior,
)

SOLVERS = ("exact", "boltzmann", "relent", "boltzmann_dqn")
CSV_COLUMNS = (
    "iteration",
    "exploitability",
    "mf_distance_prev",
    "mf_distance_final",
    "eta",
    "elapsed_s",
    "std_error",  # blank where the exploitability is exact
)

DEFAULTS = {
    "fp_policy": False,
    "fp_meanfield": False,
    "prior": "uniform",
    "prior_descent": None,
    "iterations": 100,
    "convergence_tol": 0.0,
    "window": 10,
    "particles": {"num_meanfields": 5, "num_particles": 1000},
    "dqn": {},
    "eval_episodes": 500,
    "taxi_map": None,
    "workers": 1,
    "output_dir": "results",
}
REQUIRED = {"env", "solver", "eta_grid", "seeds"}
PRIOR_DESCENT_KEYS = {"outer", "inner", "c"}


def resolve_config(doc: dict) -> dict:
    cfg = dict(DEFAULTS)
    cfg.update(doc)
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(doc).__name__}")
    if "config" in doc and isinstance(doc["config"], dict):
        doc = doc["config"]  # manifests are re-runnable
    return resolve_config(doc)


def _check(problems: list[str], what: str, value, low: float, **kw) -> bool:
    """``errors.check_number``, a refusal appended to ``problems``."""
    try:
        check_number(what, value, low, **kw)
    except ConfigError as exc:
        problems.append(str(exc))
        return False
    return True


def _plan(cfg: dict) -> tuple[list[str], dict[tuple, Callable[[], IterationLog]]]:
    """The sweep, checked and built once: ``(problems, cells)``, where
    ``cells`` maps each (eta, seed) to its cell, unrun, all on one game and
    one prior, and is empty unless ``problems`` is."""
    problems = []
    for key in sorted(set(cfg) - set(DEFAULTS) - REQUIRED):
        problems.append(f"unknown config key: {key!r}")
    env = cfg.get("env")
    if env is None:
        problems.append("missing key: env")
    elif not isinstance(env, str) or not (
        env in BUILTIN_FACTORIES or env == "taxi" or env.startswith("custom:")
    ):
        problems.append(f"unknown env name: {env!r}")
    solver = cfg.get("solver")
    if solver not in SOLVERS:
        problems.append(f"unknown solver: {solver!r} (expected one of {SOLVERS})")
    eta_grid = cfg.get("eta_grid")
    if solver != "exact":
        if not eta_grid or not isinstance(eta_grid, list):
            problems.append("eta_grid must be a nonempty list unless solver='exact'")
        else:
            checks = [_check(problems, f"eta_grid[{i}]", x, 0) for i, x in enumerate(eta_grid)]
            if all(checks) and len(set(eta_grid)) < len(eta_grid):
                problems.append(f"eta_grid entries must be distinct, got {eta_grid}")
    seeds = cfg.get("seeds")
    if (
        not seeds
        or not isinstance(seeds, list)
        or any(type(s) is not int or s < 0 for s in seeds)
    ):
        problems.append("seeds must be a nonempty list of nonnegative integers")
    elif len(set(seeds)) < len(seeds):
        problems.append(f"seeds must be distinct, got {seeds}")
    for key in ("iterations", "workers"):
        _check(problems, key, cfg.get(key, 1), 1, integer=True)
    prior = cfg.get("prior", "uniform")
    if prior != "uniform" and not (isinstance(prior, str) and prior.startswith("from_file:")):
        problems.append(f"prior must be 'uniform' or 'from_file:<path>', got {prior!r}")
    pd = cfg.get("prior_descent")
    if pd is not None:
        keys = set(pd) if isinstance(pd, dict) else set()
        for key in sorted(PRIOR_DESCENT_KEYS - keys):
            problems.append(f"prior_descent missing key: {key}")
        for key in sorted(keys - PRIOR_DESCENT_KEYS):
            problems.append(f"unknown prior_descent key: {key!r}")
    if solver == "boltzmann_dqn":
        for key in ("fp_policy", "fp_meanfield", "prior_descent"):
            if cfg.get(key):
                problems.append(f"{key} is not supported with solver 'boltzmann_dqn'")
        _check(problems, "eval_episodes", cfg.get("eval_episodes", 1), 1, integer=True)
    if env == "taxi" and solver != "boltzmann_dqn":
        problems.append("env 'taxi' is only solvable with solver 'boltzmann_dqn'")
    if problems:
        return problems, {}
    try:
        game = _build_env(cfg)
        prior = _load_prior(cfg, game)
        etas = [None] if solver == "exact" else eta_grid
        cells = {
            (eta, seed): _cell(cfg, game, prior, eta, seed) for eta in etas for seed in seeds
        }
    except (ConfigError, TypeError, ValueError) as exc:
        return [str(exc)], {}
    return [], cells


def validate_config(cfg: dict) -> list[str]:
    """The problems (empty = ok) of the sweep that ``run`` runs: structural
    checks, then every cell built, but not run."""
    return _plan(cfg)[0]


def _build_env(cfg: dict):
    env = cfg["env"]
    if env == "taxi":
        if not cfg.get("taxi_map"):
            return make_taxi()
        try:
            with open(cfg["taxi_map"]) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read taxi map {cfg['taxi_map']}: {exc}") from exc
        return make_taxi(text)
    if env.startswith("custom:"):
        return load_custom_env(env.split(":", 1)[1])
    return BUILTIN_FACTORIES[env]()


def _load_prior(cfg: dict, env) -> Policy | np.ndarray | None:
    """The configured prior, or None for uniform: the file's array, as a
    ``Policy`` on a tabular game, refused here as ``solvers.resolve_prior``
    would refuse it."""
    prior = cfg.get("prior", "uniform")
    if prior == "uniform":
        return None
    path = prior.split(":", 1)[1]
    try:
        if path.endswith(".npy"):
            arr = np.load(path)
        else:
            with open(path) as f:
                arr = np.asarray(json.load(f), dtype=np.float64)
        loaded = Policy(arr) if isinstance(env, EnvironmentSpec) else arr
        resolve_prior(env, loaded)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"prior file {path}: {exc}") from exc
    return loaded


def _cell(cfg: dict, env, prior, eta: float | None, seed: int) -> Callable[[], IterationLog]:
    """One sweep cell with every config object built, returned unrun; a
    config mistake raises here, before any work."""
    solver = mode = cfg["solver"]
    if solver == "boltzmann_dqn":  # a grid entry of 0 is the greedy run
        mode, eta = ("boltzmann", eta) if eta else ("exact", None)
    pd = cfg["prior_descent"]
    solver_cfg = SolverConfig(
        max_iterations=pd["inner"] if pd else cfg["iterations"],
        mode=mode,
        eta=eta,
        fp_average_policy=cfg["fp_policy"],
        fp_average_meanfield=cfg["fp_meanfield"],
        prior=prior,
        convergence_tol=cfg["convergence_tol"],
        window=cfg["window"],
    )
    if solver == "boltzmann_dqn":
        try:
            hp = DqnHyperparams(**cfg["dqn"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dqn overrides invalid: {exc}") from exc
        particles = ParticleConfig(**cfg["particles"], seed=seed)
        return partial(
            boltzmann_dqn_iteration, env, solver_cfg, particles, hp, seed, cfg["eval_episodes"]
        )
    if pd:
        pd_cfg = PriorDescentConfig(solver_cfg, pd["outer"], pd["c"])
        return partial(prior_descent, env, pd_cfg)
    return partial(exact_fpi if solver == "exact" else boltzmann_iteration, env, solver_cfg)


def run_cell(cfg: dict, eta: float | None, seed: int) -> IterationLog:
    """Execute one cell of the planned sweep; deterministic given (cfg, eta,
    seed).  The plan's problems are raised as one ``ConfigError``."""
    problems, cells = _plan(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cells[(eta, seed)]()


def _write_cell_csv(path: str, log: IterationLog) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for r in log.records:
            writer.writerow(
                [
                    r.index,
                    repr(r.exploitability),
                    repr(r.mf_distance_prev),
                    repr(r.mf_distance_final),
                    repr(r.eta),
                    f"{r.elapsed_s:.6f}",
                    "" if r.std_error is None else repr(r.std_error),
                ]
            )


def _run_cell(cell: Callable[[], IterationLog]) -> tuple[dict, IterationLog]:
    log = cell()
    stats = log.trailing_stats()
    stats.update(converged=log.converged, limit_cycle_period=log.limit_cycle_period)
    return stats, log


def _git_revision() -> str:
    """The commit checked out in the source tree this package runs from, read
    from its ``.git``; "unknown" where there is none (an installed copy)."""
    git = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD is the revision itself
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.split()[-1:] == [ref]:
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(table_threads: int) -> dict:
    """What a run's numbers depend on besides its config: interpreter, numpy
    and BLAS, the CPUs of the process, the threads each cell's table builds
    may use, and the source revision."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpus": _process_cpus(),
        "table_threads": table_threads,
        "git_revision": _git_revision(),
    }


def _env_tag(cfg: dict) -> str:
    env = cfg["env"]
    if env.startswith("custom:"):
        return os.path.splitext(os.path.basename(env.split(":", 1)[1]))[0]
    return env


def run(config_path: str, output_dir: str | None = None, workers: int | None = None) -> int:
    cfg = load_config(config_path)
    problems, cells = _plan(cfg)
    if workers is not None:
        _check(problems, "--workers", workers, 1, integer=True)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1
    out = output_dir or os.environ.get("MFGSOLVE_OUTPUT_DIR") or cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    workers = workers or cfg.get("workers", 1)
    results: dict[tuple, dict] = {}
    failures: list[dict] = []
    # Worker processes share the CPUs: each one's large table builds get
    # its part of them.
    table_threads = max(1, _process_cpus() // workers)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # unused by a one-process run

            pool = stack.enter_context(
                ProcessPoolExecutor(
                    max_workers=workers, initializer=_set_table_threads, initargs=(table_threads,)
                )
            )
            jobs = {key: pool.submit(_run_cell, cell).result for key, cell in cells.items()}
        else:
            jobs = {key: partial(_run_cell, cell) for key, cell in cells.items()}
        for (eta, seed), job in jobs.items():
            label = "0" if eta is None else f"{eta:g}"
            name = f"{_env_tag(cfg)}_{cfg['solver']}_eta{label}_seed{seed}.csv"
            try:
                stats, log = job()
                _write_cell_csv(os.path.join(out, name), log)
            except Exception as exc:  # cell failures recorded, sweep continues
                failures.append({"eta": eta, "seed": seed, "error": str(exc)})
                print(f"cell eta={label} seed={seed} failed: {exc}", file=sys.stderr)
                continue
            stats["csv"] = name
            results[(eta, seed)] = stats

    with open(os.path.join(out, "summary.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["eta", "trailing_mean", "trailing_min", "trailing_max", "converged_runs", "runs"]
        )
        for eta in dict.fromkeys(eta for eta, _ in results):
            cell_stats = [stats for (e, _), stats in results.items() if e == eta]
            writer.writerow(
                [
                    repr(0.0 if eta is None else float(eta)),
                    repr(float(np.mean([c["mean"] for c in cell_stats]))),
                    repr(float(np.mean([c["min"] for c in cell_stats]))),
                    repr(float(np.mean([c["max"] for c in cell_stats]))),
                    sum(bool(c["converged"]) for c in cell_stats),
                    len(cell_stats),
                ]
            )
    manifest = {
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": cfg,
        "environment": _environment(table_threads),
        "cells": {
            f"eta={k[0]}|seed={k[1]}": v for k, v in sorted(
                results.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
            )
        },
        "failures": failures,
    }
    with open(os.path.join(out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, default=str)
    print(f"wrote {len(results)} cell logs + summary to {out}")
    return 2 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgsolve", description="Mean field game solver experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a sweep config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    sub.add_parser("list-envs", help="list available environments")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args.config, args.output_dir, args.workers)
        if args.command == "validate":
            problems = validate_config(load_config(args.config))
            if problems:
                for p in problems:
                    print(p)
                return 1
            print("ok")
            return 0
        if args.command == "list-envs":
            for name in sorted(BUILTIN_FACTORIES):
                print(name)
            print("taxi")
            print("custom:<path-to-json>")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
