"""Equilibrium-seeking iterations on tabular environments.

One fixed-point skeleton, ``fixed_point_loop``, runs every loop: from the
current flow a step makes a policy, measures its exploitability and returns
the next flow.  The skeleton alone times the iterations, keeps the records
and the trailing flows, averages flows for fictitious play, stops on
``convergence_tol`` and detects limit cycles.  The tabular step takes a greedy
policy (exact fixed-point iteration) or a softmax one at a fixed temperature
(over plain or entropy-regularized action values), optionally averaged with
the previous policies; ``rl.loop`` supplies the learned step.  An outer
prior-descent loop re-anchors the prior at the latest solution while scaling
the temperature geometrically.

All tabular runs are deterministic: identical configurations reproduce the
same policies, flows, and exploitability series bit for bit (timing fields
aside).
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import dp
from .core import (
    MeanField,
    Policy,
    check_temperature,
    flow_distance,
    meanfield_distance,
    mix,
)
from .envs.base import EnvironmentSpec
from .errors import ConfigError, check_number
from .exploitability import ExploitabilityReport, exact_report

MODES = ("exact", "boltzmann", "relent")
CYCLE_TOL = 1e-9
HISTORY_LEN = 64  # trailing flow snapshots a log keeps for limit-cycle detection


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the fixed-point loops.

    ``convergence_tol`` opts into early stopping on the distance between
    successive flows; at the default 0 the iteration budget is exhausted
    (how the reference experiments were run) and ``converged`` stays False.
    ``initial_mean_field`` overrides the canonical start at the prior's
    induced flow.
    """

    max_iterations: int
    mode: str = "exact"
    eta: float | None = None
    tie: dp.TieRule = "first_optimal"
    fp_average_policy: bool = False
    fp_average_meanfield: bool = False
    prior: Policy | None = None
    convergence_tol: float = 0.0
    window: int = 10
    initial_mean_field: MeanField | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        check_number("max_iterations", self.max_iterations, 1, integer=True)
        check_number("convergence_tol", self.convergence_tol, 0.0)
        check_number("window", self.window, 1, integer=True)
        if (self.eta is None) != (self.mode == "exact"):
            raise ConfigError("eta must be given exactly when mode != 'exact'")
        if self.eta is not None:
            check_temperature(self.eta)


@dataclass(frozen=True)
class PriorDescentConfig:
    """Outer loop around a softmax run: per outer iteration, run ``inner``
    (``inner.max_iterations`` iterations, starting at temperature
    ``inner.eta``), promote its policy to the new prior, multiply the
    temperature by ``c >= 1``."""

    inner: SolverConfig
    outer_iterations: int
    c: float = 1.0

    def __post_init__(self):
        check_number("outer_iterations", self.outer_iterations, 1, integer=True)
        check_number("temperature multiplier c", self.c, 1.0)
        if self.inner.mode not in ("boltzmann", "relent"):
            raise ConfigError("prior descent runs in boltzmann or relent mode")


@dataclass
class IterationRecord:
    index: int
    exploitability: float
    mf_distance_prev: float
    mf_distance_final: float
    eta: float
    elapsed_s: float
    # Standard error of a stochastic exploitability estimate; None if exact.
    std_error: float | None = None


@dataclass
class IterationLog:
    """Per-iteration exploitability/distance series plus the final pair.

    ``meanfield_history`` keeps the trailing flow snapshots (bounded) used
    for limit-cycle detection; ``mf_distance_final`` is therefore only
    available (non-NaN) for the retained tail of a long run.
    """

    records: list[IterationRecord]
    final_policy: Policy
    final_meanfield: MeanField
    converged: bool
    limit_cycle_period: int | None
    meanfield_history: list[np.ndarray]
    window: int
    outer_boundaries: list[int] = field(default_factory=list)

    @property
    def exploitabilities(self) -> np.ndarray:
        return np.array([r.exploitability for r in self.records])

    def trailing_stats(self) -> dict[str, float]:
        tail = self.exploitabilities[-self.window:]
        return {
            "min": float(tail.min()),
            "mean": float(tail.mean()),
            "max": float(tail.max()),
        }


def detect_limit_cycle(
    history: list[np.ndarray], max_period: int, tol: float = CYCLE_TOL
) -> int | None:
    """Smallest period ``p <= max_period`` the trailing flow snapshots repeat
    with, or None if aperiodic.  Snapshots settled on one point report
    period 1; ``fixed_point_loop`` reports 1 outright for a run that stopped
    on ``convergence_tol``."""
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if len(history) < 2 * max_period:
        raise ValueError(
            f"need at least {2 * max_period} trailing snapshots, have {len(history)}"
        )
    n = len(history)
    for period in range(1, max_period + 1):
        if all(
            flow_distance(history[k], history[k - period]) < tol
            for k in range(n - max_period, n)
        ):
            return period
    return None


def _uniform_prior(env: EnvironmentSpec) -> Policy:
    return Policy.uniform(env.horizon, env.num_states, env.num_actions)


# (k, current flow, previous policy or None) -> (policy, report, next flow)
Step = Callable[[int, MeanField, object], tuple[object, ExploitabilityReport, MeanField]]


def fixed_point_loop(mu: MeanField, step: Step, cfg: SolverConfig) -> IterationLog:
    """Iterate ``step`` from the start flow ``mu`` for at most
    ``cfg.max_iterations`` iterations and log each one.

    Only ``max_iterations``, ``fp_average_meanfield``, ``convergence_tol``,
    ``window`` and ``eta`` (the records' label, 0 when None) are read here.
    A step that keeps state between calls keys it to the flow it was built
    on, so a flow mixed by fictitious play invalidates it.
    """
    eta = 0.0 if cfg.eta is None else cfg.eta
    history: deque[np.ndarray] = deque(maxlen=HISTORY_LEN)
    history.append(mu.per_time)
    records: list[IterationRecord] = []
    pi = None
    converged = False
    for k in range(cfg.max_iterations):
        start = time.perf_counter()
        pi_new, report, mu_next = step(k, mu, pi)
        if cfg.fp_average_meanfield and k > 0:
            mu_next = mix(mu_next, mu, 1.0 / (k + 1))
        dist = meanfield_distance(mu_next, mu)
        records.append(
            IterationRecord(
                index=k,
                exploitability=report.value,
                mf_distance_prev=dist,
                mf_distance_final=np.nan,
                eta=eta,
                elapsed_s=time.perf_counter() - start,
                std_error=report.std_error,
            )
        )
        history.append(mu_next.per_time)
        pi, mu = pi_new, mu_next
        if cfg.convergence_tol > 0.0 and dist < cfg.convergence_tol:
            converged = True
            break
    final = history[-1]
    for offset, snap in enumerate(reversed(history)):
        idx = len(records) - offset  # history holds one more entry (mu^0)
        if 0 <= idx - 1 < len(records):
            records[idx - 1].mf_distance_final = flow_distance(snap, final)
    # A converged run's window still holds its approach to the fixed point,
    # whose snapshots lie farther apart than CYCLE_TOL; it has period 1.
    period = 1 if converged else None
    max_period = min(cfg.window, len(history) // 2)
    if not converged and max_period >= 1:
        period = detect_limit_cycle(list(history), max_period)
    return IterationLog(
        records=records,
        final_policy=pi,
        final_meanfield=mu,
        converged=converged,
        limit_cycle_period=period,
        meanfield_history=list(history),
        window=cfg.window,
    )


def _iterate(env: EnvironmentSpec, cfg: SolverConfig) -> IterationLog:
    """The skeleton with the tabular step.  Each induced flow gets its tables
    built once and one backward sweep over them, whose stacked columns are
    the exploitability's best response and policy evaluation and, in relent
    mode, the soft Q of the next policy step (which otherwise reuses the best
    response's Q).  A flow mixed by fictitious play is no policy's induced
    flow, so it gets tables, and a Q for the policy step, of its own."""
    dp.check_tabular(env)
    prior = (cfg.prior or _uniform_prior(env)).require_positive()
    soft = (cfg.eta, prior) if cfg.mode == "relent" else None
    tables = q = None  # the last induced flow's tables, and the policy step's Q on them

    def step(k: int, mu: MeanField, pi: Policy | None):
        nonlocal tables, q
        if tables is None or tables.mu is not mu:
            tables = q = None  # free the unmixed flow's tables first
            tables = dp.flow_tables(env, mu)
            q = (dp.soft_q(env, mu, cfg.eta, prior, tables=tables) if soft
                 else dp.optimal_q(env, mu, tables=tables))
        if cfg.mode == "exact":
            pi_new = dp.greedy_policy(q, cfg.tie)
        else:
            pi_new = dp.boltzmann_policy(q, cfg.eta, prior)
        if cfg.fp_average_policy and k > 0:
            pi_new = mix(pi_new, pi, 1.0 / (k + 1))
        tables = q = None  # one flow's tables alive at a time
        tables = dp.flow_tables(env, dp.induced_mean_field(env, pi_new))
        qstar, qpi, *qsoft = dp.backward_sweep(
            env, tables.mu, hard=True, pi=pi_new, soft=soft, tables=tables
        )
        q = qsoft[0] if soft else qstar
        return pi_new, exact_report(env, pi_new, qstar, qpi), tables.mu

    mu = cfg.initial_mean_field or dp.induced_mean_field(env, prior)
    return fixed_point_loop(mu, step, cfg)


def exact_fpi(env: EnvironmentSpec, cfg: SolverConfig) -> IterationLog:
    """Greedy fixed-point iteration (optimal policy, then its induced flow)."""
    if cfg.mode != "exact":
        raise ConfigError(f"exact_fpi needs mode='exact', got {cfg.mode!r}")
    return _iterate(env, cfg)


def boltzmann_iteration(env: EnvironmentSpec, cfg: SolverConfig) -> IterationLog:
    """Softmax fixed-point iteration over plain ('boltzmann') or
    entropy-regularized ('relent') action values."""
    if cfg.mode not in ("boltzmann", "relent"):
        raise ConfigError(
            f"boltzmann_iteration needs mode 'boltzmann' or 'relent', got {cfg.mode!r}"
        )
    return _iterate(env, cfg)


def prior_descent(env: EnvironmentSpec, cfg: PriorDescentConfig) -> IterationLog:
    """Iterated softmax solves with the prior re-anchored at each solution.

    Returns the concatenated inner logs; ``outer_boundaries`` marks the
    record index where each outer iteration starts.
    """
    prior = (cfg.inner.prior or _uniform_prior(env)).require_positive()
    eta = cfg.inner.eta
    start = cfg.inner.initial_mean_field
    boundaries: list[int] = []
    records: list[IterationRecord] = []
    last: IterationLog | None = None
    for _ in range(cfg.outer_iterations):
        boundaries.append(len(records))
        last = boltzmann_iteration(
            env, replace(cfg.inner, eta=eta, prior=prior, initial_mean_field=start)
        )
        for rec in last.records:
            rec.index = len(records)
            records.append(rec)
        prior = last.final_policy.require_positive()
        eta = eta * cfg.c
        # The new prior's induced flow, unless flow averaging mixed it.
        start = None if cfg.inner.fp_average_meanfield else last.final_meanfield
    assert last is not None
    return IterationLog(
        records=records,
        final_policy=last.final_policy,
        final_meanfield=last.final_meanfield,
        converged=last.converged,
        limit_cycle_period=last.limit_cycle_period,
        meanfield_history=last.meanfield_history,
        window=cfg.inner.window,
        outer_boundaries=boundaries,
    )
