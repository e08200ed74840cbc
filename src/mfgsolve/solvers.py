"""Equilibrium-seeking iterations on tabular environments.

Four loops around the same skeleton (policy from the current flow, flow from
the policy): exact fixed-point iteration with greedy policies, softmax
iteration at a fixed temperature (over plain or entropy-regularized action
values), optional fictitious-play averaging of policies and/or flows, and an
outer prior-descent loop that re-anchors the prior at the latest solution
while scaling the temperature geometrically.

All tabular runs are deterministic: identical configurations reproduce the
same policies, flows, and exploitability series bit for bit (timing fields
aside).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

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
from .errors import ConfigError
from .exploitability import exploitability_exact

MODES = ("exact", "boltzmann", "relent")
CYCLE_TOL = 1e-9


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
    history: int = 64
    initial_mean_field: MeanField | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.convergence_tol < 0.0:
            raise ConfigError("convergence_tol must be >= 0")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if (self.eta is None) != (self.mode == "exact"):
            raise ConfigError("eta must be given exactly when mode != 'exact'")
        if self.eta is not None:
            check_temperature(self.eta)


@dataclass(frozen=True)
class PriorDescentConfig:
    """Outer loop: per outer iteration, run the softmax solver to (near)
    convergence, promote its policy to the new prior, multiply the
    temperature by ``c >= 1``."""

    outer_iterations: int
    inner_iterations: int
    eta0: float
    c: float = 1.0
    mode: str = "boltzmann"
    fp_average_policy: bool = False
    fp_average_meanfield: bool = False
    prior: Policy | None = None
    convergence_tol: float = 0.0
    window: int = 10
    history: int = 64

    def __post_init__(self):
        if self.outer_iterations < 1 or self.inner_iterations < 1:
            raise ConfigError("outer and inner iteration counts must be >= 1")
        if self.c < 1.0:
            raise ConfigError("temperature multiplier c must be >= 1")
        if self.mode not in ("boltzmann", "relent"):
            raise ConfigError("prior descent runs in boltzmann or relent mode")
        check_temperature(self.eta0)


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
    window: int = 10
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
    log: IterationLog | list[np.ndarray], max_period: int, tol: float = CYCLE_TOL
) -> int | None:
    """Smallest period ``p <= max_period`` the trailing flow snapshots repeat
    with, or None if aperiodic.  Snapshots settled on one point report
    period 1; ``_iterate`` reports 1 outright for a run that stopped on
    ``convergence_tol``."""
    history = log.meanfield_history if isinstance(log, IterationLog) else log
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


def _policy_step(
    env, tables: dp.FlowTables, qstar: dp.QTable | None, cfg: SolverConfig, prior: Policy
) -> Policy:
    """Policy from the flow behind ``tables``; ``qstar`` is that flow's
    optimal Q if a best response already computed it, else None."""
    if cfg.mode == "relent":
        q = dp.soft_q(env, tables.mu, cfg.eta, prior, tables=tables)
    else:
        q = qstar if qstar is not None else dp.optimal_q(env, tables.mu, tables=tables)
    if cfg.mode == "exact":
        return dp.greedy_policy(q, cfg.tie)
    return dp.boltzmann_policy(q, cfg.eta, prior)


def _iterate(env: EnvironmentSpec, cfg: SolverConfig, eta_label: float) -> IterationLog:
    """Each flow's tables are built once and shared by every recursion on
    it: the exploitability's best response and policy evaluation on the
    induced flow, and the next policy step, which in exact and boltzmann
    mode also reuses that best response's Q.  A flow mixed by fictitious
    play is no policy's induced flow, so it gets tables of its own."""
    dp.check_tabular(env)
    prior = (cfg.prior or _uniform_prior(env)).require_positive()
    mu = cfg.initial_mean_field or dp.induced_mean_field(env, prior)
    history: deque[np.ndarray] = deque(maxlen=cfg.history)
    history.append(mu.per_time)
    records: list[IterationRecord] = []
    pi = prior
    converged = False
    tables = qstar = None  # mu's tables, and its optimal Q once known
    for k in range(cfg.max_iterations):
        start = time.perf_counter()
        if tables is None:
            tables = dp.flow_tables(env, mu)
        pi_new = _policy_step(env, tables, qstar, cfg, prior)
        if cfg.fp_average_policy and k > 0:
            pi_new = mix(pi_new, pi, 1.0 / (k + 1))
        tables = None  # free mu's tables first: one flow's tables alive at a time
        tables = dp.flow_tables(env, dp.induced_mean_field(env, pi_new))
        report = exploitability_exact(env, pi_new, tables)
        mu_next, qstar = tables.mu, report.best_response_q
        if cfg.fp_average_meanfield and k > 0:
            mu_next = mix(mu_next, mu, 1.0 / (k + 1))
            tables = qstar = None
        dist = meanfield_distance(mu_next, mu)
        records.append(
            IterationRecord(
                index=k,
                exploitability=report.value,
                mf_distance_prev=dist,
                mf_distance_final=np.nan,
                eta=eta_label,
                elapsed_s=time.perf_counter() - start,
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


def exact_fpi(env: EnvironmentSpec, cfg: SolverConfig) -> IterationLog:
    """Greedy fixed-point iteration (optimal policy, then its induced flow)."""
    if cfg.mode != "exact":
        raise ConfigError(f"exact_fpi needs mode='exact', got {cfg.mode!r}")
    return _iterate(env, cfg, eta_label=0.0)


def boltzmann_iteration(env: EnvironmentSpec, cfg: SolverConfig) -> IterationLog:
    """Softmax fixed-point iteration over plain ('boltzmann') or
    entropy-regularized ('relent') action values."""
    if cfg.mode not in ("boltzmann", "relent"):
        raise ConfigError(
            f"boltzmann_iteration needs mode 'boltzmann' or 'relent', got {cfg.mode!r}"
        )
    return _iterate(env, cfg, eta_label=cfg.eta)


def prior_descent(env: EnvironmentSpec, cfg: PriorDescentConfig) -> IterationLog:
    """Iterated softmax solves with the prior re-anchored at each solution.

    Returns the concatenated inner logs; ``outer_boundaries`` marks the
    record index where each outer iteration starts.
    """
    prior = (cfg.prior or _uniform_prior(env)).require_positive()
    eta = cfg.eta0
    boundaries: list[int] = []
    records: list[IterationRecord] = []
    last: IterationLog | None = None
    for _ in range(cfg.outer_iterations):
        inner_cfg = SolverConfig(
            max_iterations=cfg.inner_iterations,
            mode=cfg.mode,
            eta=eta,
            fp_average_policy=cfg.fp_average_policy,
            fp_average_meanfield=cfg.fp_average_meanfield,
            prior=prior,
            convergence_tol=cfg.convergence_tol,
            window=cfg.window,
            history=cfg.history,
            # The prior's induced flow, unless flow averaging mixed it.
            initial_mean_field=(
                None if last is None or cfg.fp_average_meanfield else last.final_meanfield
            ),
        )
        boundaries.append(len(records))
        last = boltzmann_iteration(env, inner_cfg)
        for rec in last.records:
            rec.index = len(records)
            records.append(rec)
        prior = last.final_policy.require_positive()
        eta = eta * cfg.c
    assert last is not None
    return IterationLog(
        records=records,
        final_policy=last.final_policy,
        final_meanfield=last.final_meanfield,
        converged=last.converged,
        limit_cycle_period=last.limit_cycle_period,
        meanfield_history=last.meanfield_history,
        window=cfg.window,
        outer_boundaries=boundaries,
    )
