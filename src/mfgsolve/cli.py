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


def _expect(ok, problem: str) -> None:
    if not ok:
        raise ConfigError(problem)


def _is(ok, what: str):
    """A row's check: ``ok(value)``, else the refusal "<key> must be <what>"."""
    return lambda key, value, cfg: _expect(ok(value), f"{key} must be {what}, got {value!r}")


def _number(low: float, integer=False):
    return lambda key, value, cfg: check_number(key, value, low, integer=integer)


def _entries(key, values, cfg, integer=False) -> None:
    """A nonempty list of distinct nonnegative numbers."""
    _expect(values and isinstance(values, list), f"{key} must be a nonempty list")
    for i, x in enumerate(values):
        check_number(f"{key}[{i}]", x, 0, integer=integer)
    _expect(len(set(values)) == len(values), f"{key} must be distinct, got {values}")


def _dqn(key, overrides, cfg) -> None:
    try:
        DqnHyperparams(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dqn overrides invalid: {exc}") from exc


def _prior(key, prior, cfg) -> None:
    ok = prior == "uniform" or isinstance(prior, str) and prior.startswith("from_file:")
    _expect(ok, f"prior must be 'uniform' or 'from_file:<path>', got {prior!r}")


def _env(key, env, cfg) -> None:
    known = isinstance(env, str) and (env in BUILTIN_FACTORIES or env.startswith("custom:"))
    _expect(known or env == "taxi", f"unknown env name: {env!r}")
    taxi_ok = env != "taxi" or cfg.get("solver") == "boltzmann_dqn"
    _expect(taxi_ok, "env 'taxi' is only solvable with solver 'boltzmann_dqn'")


def _prior_descent(key, pd, cfg) -> None:
    """null, or phases whose outer * inner iterations fit in the budget ``iterations``."""
    if pd is not None:
        keys_ok = isinstance(pd, dict) and set(pd) == {"outer", "inner", "c"}
        _expect(keys_ok, f"prior_descent must be null or hold outer, inner and c, got {pd!r}")
        PriorDescentConfig(SolverConfig(pd["inner"], "boltzmann", 1.0), pd["outer"], pd["c"])
        n, total = cfg.get("iterations"), pd["outer"] * pd["inner"]
        fits = n == _SCHEMA["iterations"][2] or type(n) is int and n >= total
        _expect(fits, f"prior_descent runs {total} iterations, more than iterations = {n!r}")


_BOOL = _is(lambda v: type(v) is bool, "true or false")
# One row per config key: its check(key, value, cfg), made on every key present
# whatever the run; the solvers or the env that read it (None: every run); and
# its default, unless the key is required.  A key that the run does not read
# must be absent or at its default (null if required), as in a manifest,
# which holds the resolved config and is re-run.
_SCHEMA = {
    "env": (_env, None),
    "solver": (_is(SOLVERS.__contains__, f"one of {SOLVERS}"), None),
    "eta_grid": (_entries, ("boltzmann", "relent", "boltzmann_dqn")),
    "seeds": (partial(_entries, integer=True), None),
    "fp_policy": (_BOOL, ("exact", "boltzmann", "relent"), False),
    "fp_meanfield": (_BOOL, ("exact", "boltzmann", "relent"), False),
    "prior": (_prior, None, "uniform"),
    "prior_descent": (_prior_descent, ("boltzmann", "relent"), None),
    "iterations": (_number(1, True), None, 100),
    "convergence_tol": (_number(0), None, 0.0),
    "window": (_number(1, True), None, 10),
    "particles": (
        lambda key, value, cfg: ParticleConfig(**value, seed=0),
        ("boltzmann_dqn",),
        {"num_meanfields": 5, "num_particles": 1000},
    ),
    "dqn": (_dqn, ("boltzmann_dqn",), {}),
    "eval_episodes": (_number(1, True), ("taxi",), 500),
    "taxi_map": (_is(lambda v: v is None or isinstance(v, str), "null or a path"), ("taxi",), None),
    "workers": (_number(1, True), None, 1),
    "output_dir": (_is(lambda v: isinstance(v, str) and v != "", "a path"), None, "results"),
}


def resolve_config(doc: dict) -> dict:
    return {**{key: row[2] for key, row in _SCHEMA.items() if len(row) > 2}, **doc}


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


def _plan(cfg: dict) -> tuple[list[str], dict[tuple, Callable[[], IterationLog]]]:
    """The sweep, checked and built once: ``(problems, cells)``, where
    ``cells`` maps each (eta, seed) to its cell, unrun, all on one game and
    one prior, and is empty unless ``problems`` is."""
    problems = [f"unknown config key: {key!r}" for key in sorted(set(cfg) - set(_SCHEMA))]
    env, solver = cfg.get("env"), cfg.get("solver")
    for key, (check, readers, *default) in _SCHEMA.items():
        value = cfg.get(key, *default)
        # Under an unknown solver every key counts as read: its one problem is reported alone.
        read = readers is None or env in readers or solver in readers or solver not in SOLVERS
        if value is None and not default:  # a required key, absent or null
            problems += [f"missing key: {key}"] if read else []
            continue
        try:
            check(key, value, cfg)
        except (ConfigError, TypeError, ValueError) as exc:
            problems.append(str(exc))
        if not read and value != (default[0] if default else None):
            problems.append(f"{key} is not read by solver {solver!r} on env {env!r}: leave it out")
    if problems:
        return problems, {}
    try:
        game = _build_env(cfg)
        prior = _load_prior(cfg, game)
        etas = [None] if solver == "exact" else cfg["eta_grid"]
        cells = {(e, s): _cell(cfg, game, prior, e, s) for e in etas for s in cfg["seeds"]}
    except (ConfigError, TypeError, ValueError) as exc:
        return [str(exc)], {}
    return [], cells


def validate_config(cfg: dict) -> list[str]:
    """The problems (empty = ok) of ``run``'s sweep: every key checked, every cell built."""
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
        particles = ParticleConfig(**cfg["particles"], seed=seed)
        hp = DqnHyperparams(**cfg["dqn"])
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


def _write_summary(path: str, results: dict[tuple, dict]) -> None:
    """One row per temperature: the cells' trailing statistics averaged over
    seeds, then the across-seed standard error of the trailing mean (blank
    for one seed)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["eta", "trailing_mean", "trailing_min", "trailing_max", "converged_runs", "runs",
             "trailing_mean_std_error"]
        )
        for eta in dict.fromkeys(eta for eta, _ in results):
            cell_stats = [stats for (e, _), stats in results.items() if e == eta]
            means = (np.mean([c[s] for c in cell_stats]) for s in ("mean", "min", "max"))
            runs = len(cell_stats)
            spread = np.std([c["mean"] for c in cell_stats], ddof=1) if runs > 1 else None
            writer.writerow(
                [repr(0.0 if eta is None else float(eta)), *(repr(float(m)) for m in means)]
                + [sum(bool(c["converged"]) for c in cell_stats), runs]
                + ["" if spread is None else repr(float(spread / np.sqrt(runs)))]
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
    if workers is not None:
        check_number("--workers", workers, 1, integer=True)
    cfg = load_config(config_path)
    problems, cells = _plan(cfg)
    if problems:
        print(*(f"config error: {p}" for p in problems), sep="\n", file=sys.stderr)
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

    _write_summary(os.path.join(out, "summary.csv"), results)
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
            print("\n".join(problems) or "ok")
            return 1 if problems else 0
        if args.command == "list-envs":
            print(*sorted(BUILTIN_FACTORIES), "taxi", "custom:<path-to-json>", sep="\n")
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
