"""Replay the benchmark's deterministic workloads against its recorded series.

``perfbench/reference.json`` holds the exploitability series that
``perfbench/run.py`` checks every solve against, within the recorded
``tolerance``.  These tests solve the same inputs in-process, built the way
``perfbench/worker.py`` builds them, so a drift fails here and not only in
the benchmark.  The perfbench files are read, never written.
"""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from mfgsolve import cli
from mfgsolve.envs import EnvironmentSpec
from mfgsolve.solvers import SolverConfig, boltzmann_iteration

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load_bench():
    """``perfbench/run.py`` as a module, for its workload constants and its
    affine game generator; ``sys.path`` is left as it was."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(ROOT, "perfbench", "run.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


BENCH = _load_bench()
with open(os.path.join(BENCH.HERE, "reference.json")) as f:
    REFERENCE = json.load(f)
TOY = BENCH.AFFINE["toy"]


def assert_matches(values, converged, period, recorded):
    want = np.array(recorded["exploitability"])
    assert len(values) == len(want)
    drift = np.abs(np.asarray(values) - want).max()
    assert drift <= REFERENCE["tolerance"], f"drift {drift:.3g} from the reference"
    assert converged == recorded["converged"]
    assert period == recorded["limit_cycle_period"]


def test_shipped_sis_prior_descent():
    cfg = cli.load_config(os.path.join(ROOT, "configs", "sis_prior_descent.json"))
    log = cli.run_cell(cfg, cfg["eta_grid"][0], cfg["seeds"][0])
    recorded = REFERENCE["sis_descent"]["full"]["shipped"]
    assert_matches(log.exploitabilities, log.converged, log.limit_cycle_period, recorded)


@pytest.mark.parametrize("game", range(BENCH.NUM_GAMES))
def test_toy_affine_game(game):
    data = BENCH.affine.generate(game, TOY["states"], TOY["actions"])
    env = EnvironmentSpec(name="affine", horizon=TOY["horizon"], **data)
    env.validate_dynamics()
    cfg = SolverConfig(max_iterations=TOY["iterations"], mode="boltzmann", eta=BENCH.AFFINE_ETA)
    log = boltzmann_iteration(env, cfg)
    recorded = REFERENCE["affine_s100"]["toy"][str(game)]
    assert_matches(log.exploitabilities, log.converged, log.limit_cycle_period, recorded)
