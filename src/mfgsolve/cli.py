"""Experiment runner: load a JSON config, execute a solver sweep over
temperatures and seeds, and write machine-readable results.

Per (eta, seed) cell one CSV of per-iteration records is written; a sweep
summary CSV aggregates trailing-window exploitability statistics per
temperature, and a manifest records the fully resolved configuration so a
run can be reproduced from its own output directory.

Verbs: ``run``, ``validate``, ``list-envs``.  Exit codes: 0 ok, 1 config
error, 2 runtime failure.  ``MFGSOLVE_OUTPUT_DIR`` overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .core import Policy, as_distribution
from .envs import BUILTIN_FACTORIES, EnvironmentSpec, load_custom_env, make_taxi
from .errors import ConfigError
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
    "history": 64,
    "particles": {"num_meanfields": 5, "num_particles": 1000},
    "dqn": {},
    "eval_episodes": 500,
    "taxi_map": None,
    "workers": 1,
    "output_dir": "results",
}


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
    if "config" in doc and isinstance(doc["config"], dict):
        doc = doc["config"]  # manifests are re-runnable
    return resolve_config(doc)


def validate_config(cfg: dict) -> list[str]:
    """Schema and referential checks; returns a list of problems (empty = ok)."""
    problems = []
    env = cfg.get("env")
    if env is None:
        problems.append("missing key: env")
    elif isinstance(env, str) and env.startswith("custom:"):
        try:
            load_custom_env(env.split(":", 1)[1])
        except ConfigError as exc:
            problems.append(str(exc))
    elif env not in BUILTIN_FACTORIES and env != "taxi":
        problems.append(f"unknown env name: {env!r}")
    solver = cfg.get("solver")
    if solver not in SOLVERS:
        problems.append(f"unknown solver: {solver!r} (expected one of {SOLVERS})")
    eta_grid = cfg.get("eta_grid")
    if solver != "exact":
        if not eta_grid:
            problems.append("eta_grid must be a nonempty list unless solver='exact'")
        elif any(not isinstance(x, (int, float)) or x < 0 for x in eta_grid):
            problems.append("eta_grid entries must be nonnegative reals")
    seeds = cfg.get("seeds")
    if not seeds or not isinstance(seeds, list):
        problems.append("seeds must be a nonempty list of integers")
    if cfg.get("iterations", 1) < 1:
        problems.append("iterations must be >= 1")
    prior = cfg.get("prior", "uniform")
    if isinstance(prior, str) and prior.startswith("from_file:"):
        if not os.path.exists(prior.split(":", 1)[1]):
            problems.append(f"prior file not found: {prior.split(':', 1)[1]}")
    elif prior != "uniform":
        problems.append(f"prior must be 'uniform' or 'from_file:<path>', got {prior!r}")
    pd = cfg.get("prior_descent")
    if pd is not None:
        if solver not in ("boltzmann", "relent"):
            problems.append("prior_descent needs solver 'boltzmann' or 'relent'")
        for key in ("outer", "inner", "c"):
            if key not in pd:
                problems.append(f"prior_descent missing key: {key}")
    if solver == "boltzmann_dqn":
        try:
            DqnHyperparams(**cfg.get("dqn", {}))
        except (TypeError, ValueError) as exc:
            problems.append(f"dqn overrides invalid: {exc}")
        for key in ("fp_policy", "fp_meanfield"):
            if cfg.get(key):
                problems.append(f"{key} is not supported with solver 'boltzmann_dqn'")
    if env == "taxi" and solver != "boltzmann_dqn":
        problems.append("env 'taxi' is only solvable with solver 'boltzmann_dqn'")
    if cfg.get("taxi_map") and not os.path.exists(cfg["taxi_map"]):
        problems.append(f"taxi map file not found: {cfg['taxi_map']}")
    if not problems and prior != "uniform":
        try:
            _load_prior(cfg, _build_env(cfg))
        except ConfigError as exc:
            problems.append(str(exc))
    return problems


def _build_env(cfg: dict):
    env = cfg["env"]
    if env == "taxi":
        if cfg.get("taxi_map"):
            with open(cfg["taxi_map"]) as f:
                return make_taxi(f.read())
        return make_taxi()
    if env.startswith("custom:"):
        return load_custom_env(env.split(":", 1)[1])
    return BUILTIN_FACTORIES[env]()


def _load_prior(cfg: dict, env) -> Policy | np.ndarray | None:
    """The configured prior, or None for uniform.

    A tabular game takes a (T, S, A) policy, a sampled one (taxi) a single
    action distribution; a file that does not fit is a ConfigError.
    """
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
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read prior file {path}: {exc}") from exc
    tabular = isinstance(env, EnvironmentSpec)
    shape = (
        (env.horizon, env.num_states, env.num_actions) if tabular else (env.num_actions,)
    )
    if arr.shape != shape:
        raise ConfigError(
            f"prior in {path} has shape {arr.shape}, env {env.name!r} needs {shape}"
        )
    try:
        return Policy(arr) if tabular else as_distribution(arr, what="prior")
    except ValueError as exc:
        raise ConfigError(f"prior in {path}: {exc}") from exc


def run_cell(cfg: dict, eta: float | None, seed: int) -> IterationLog:
    """Execute one sweep cell; deterministic given (cfg, eta, seed)."""
    env = _build_env(cfg)
    solver = cfg["solver"]
    prior = _load_prior(cfg, env)
    if solver == "boltzmann_dqn":
        particles = ParticleConfig(
            cfg["particles"]["num_meanfields"],
            cfg["particles"]["num_particles"],
            seed,
        )
        hp = DqnHyperparams(**cfg.get("dqn", {}))
        return boltzmann_dqn_iteration(
            env,
            eta=eta,
            prior=prior,
            iterations=cfg["iterations"],
            particles=particles,
            hp=hp,
            seed=seed,
            eval_episodes=cfg["eval_episodes"],
        )
    if cfg.get("prior_descent"):
        pd = cfg["prior_descent"]
        return prior_descent(
            env,
            PriorDescentConfig(
                outer_iterations=pd["outer"],
                inner_iterations=pd["inner"],
                eta0=eta if eta is not None else pd.get("eta0"),
                c=pd["c"],
                mode=solver,
                fp_average_policy=cfg["fp_policy"],
                fp_average_meanfield=cfg["fp_meanfield"],
                prior=prior,
                convergence_tol=cfg["convergence_tol"],
                window=cfg["window"],
                history=cfg["history"],
            ),
        )
    solver_cfg = SolverConfig(
        max_iterations=cfg["iterations"],
        mode=solver,
        eta=eta,
        fp_average_policy=cfg["fp_policy"],
        fp_average_meanfield=cfg["fp_meanfield"],
        prior=prior,
        convergence_tol=cfg["convergence_tol"],
        window=cfg["window"],
        history=cfg["history"],
    )
    if solver == "exact":
        return exact_fpi(env, solver_cfg)
    return boltzmann_iteration(env, solver_cfg)


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


def _cell_worker(args):
    cfg, eta, seed = args
    log = run_cell(cfg, eta, seed)
    stats = log.trailing_stats()
    stats.update(converged=log.converged, limit_cycle_period=log.limit_cycle_period)
    return stats, log


def _env_tag(cfg: dict) -> str:
    env = cfg["env"]
    if env.startswith("custom:"):
        return os.path.splitext(os.path.basename(env.split(":", 1)[1]))[0]
    return env


def run(config_path: str, output_dir: str | None = None, workers: int | None = None) -> int:
    cfg = load_config(config_path)
    problems = validate_config(cfg)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 1
    out = (
        output_dir
        or os.environ.get("MFGSOLVE_OUTPUT_DIR")
        or cfg["output_dir"]
    )
    os.makedirs(out, exist_ok=True)
    workers = workers or cfg.get("workers", 1)
    etas = [None] if cfg["solver"] == "exact" else list(cfg["eta_grid"])
    cells = [(eta, seed) for eta in etas for seed in cfg["seeds"]]
    results: dict[tuple, dict] = {}
    failures: list[dict] = []

    def handle(eta, seed, outcome, err=None):
        label = "0" if eta is None else f"{eta:g}"
        name = f"{_env_tag(cfg)}_{cfg['solver']}_eta{label}_seed{seed}.csv"
        if err is not None:
            failures.append({"eta": eta, "seed": seed, "error": str(err)})
            print(f"cell eta={label} seed={seed} failed: {err}", file=sys.stderr)
            return
        stats, log = outcome
        _write_cell_csv(os.path.join(out, name), log)
        stats["csv"] = name
        results[(eta, seed)] = stats

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (eta, seed, pool.submit(_cell_worker, (cfg, eta, seed)))
                for eta, seed in cells
            ]
            for eta, seed, fut in futures:
                try:
                    handle(eta, seed, fut.result())
                except Exception as exc:  # cell failures recorded, sweep continues
                    handle(eta, seed, None, err=exc)
    else:
        for eta, seed in cells:
            try:
                handle(eta, seed, _cell_worker((cfg, eta, seed)))
            except Exception as exc:
                handle(eta, seed, None, err=exc)

    with open(os.path.join(out, "summary.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["eta", "trailing_mean", "trailing_min", "trailing_max", "converged_runs", "runs"]
        )
        for eta in etas:
            cell_stats = [results[(eta, s)] for s in cfg["seeds"] if (eta, s) in results]
            if not cell_stats:
                continue
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
