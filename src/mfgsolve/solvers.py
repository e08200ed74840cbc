"""Equilibrium-seeking iterations on tabular environments.

One fixed-point skeleton, ``fixed_point_loop``, runs every loop: from the
current flow a step makes a policy, measures its exploitability and returns
the next flow.  The skeleton alone times the iterations, keeps the records
and the trailing flows, averages flows for fictitious play, stops on
``convergence_tol`` and detects limit cycles.  The tabular step takes a greedy
policy (exact fixed-point iteration) or a softmax one at a fixed temperature
(over plain or entropy-regularized action values), optionally averaged with
the previous policies; ``rl.loop`` supplies the learned step.  Both steps
take their prior and its logits from ``resolve_prior``, the one place that
decides what a valid prior is on a tabular or a sampled game.  The skeleton
runs in phases, one per temperature: prior descent is a softmax run whose
phases move the prior, carried as logits, to the last phase's policy while
the temperature grows geometrically.

All tabular runs are deterministic: identical configurations reproduce the
same policies, flows, and exploitability series bit for bit (timing fields
aside).
"""

from __future__ import annotations

import operator
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate

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
from .sim import FixedActionPolicy

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
    fp_average_policy: bool = False
    fp_average_meanfield: bool = False
    prior: Policy | np.ndarray | None = None  # uniform if None; see resolve_prior
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
    """A softmax run ``inner`` in ``outer_iterations`` phases of at most
    ``inner.max_iterations`` iterations each, the first at temperature
    ``inner.eta``; each next phase takes the last policy as its prior and
    the temperature times ``c >= 1``."""

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


# (k, eta, current flow, previous policy or None) -> (policy, report, next flow)
Step = Callable[
    [int, float | None, MeanField, object], tuple[object, ExploitabilityReport, MeanField]
]


def fixed_point_loop(
    mu: MeanField, step: Step, cfg: SolverConfig, etas: list[float] | None = None
) -> IterationLog:
    """Iterate ``step`` from the start flow ``mu`` in one phase per
    temperature of ``etas`` (default ``[cfg.eta]``), and log each iteration.

    A phase runs at most ``max_iterations`` iterations and ends early on
    ``convergence_tol`` (``converged`` tells whether the last one did).  Its
    ``k`` restarts, and with it the fictitious-play weight ``1 / (k + 1)``;
    the step sees a new phase as ``k == 0`` with a previous policy.  The new
    phase starts from the last flow the step returned, before flow
    averaging.  Records carry their phase's temperature (0 when None) and
    are numbered across the run.

    Only ``max_iterations``, ``fp_average_meanfield``, ``convergence_tol``,
    ``window`` and ``eta`` are read here.  A step that keeps state between
    calls keys it to the flow it was built on, so a flow mixed by fictitious
    play invalidates it.
    """
    history: deque[np.ndarray] = deque(maxlen=HISTORY_LEN)
    history.append(mu.per_time)
    records: list[IterationRecord] = []
    pi = None
    for phase, eta in enumerate(etas or [cfg.eta]):
        if phase:
            mu = unmixed  # the last policy's induced flow
        converged = False
        for k in range(cfg.max_iterations):
            start = time.perf_counter()
            pi_new, report, unmixed = step(k, eta, mu, pi)
            mu_next = unmixed
            if cfg.fp_average_meanfield and k > 0:
                mu_next = mix(unmixed, mu, 1.0 / (k + 1))
            dist = meanfield_distance(mu_next, mu)
            records.append(
                IterationRecord(
                    index=len(records),
                    exploitability=report.value,
                    mf_distance_prev=dist,
                    mf_distance_final=np.nan,
                    eta=0.0 if eta is None else eta,
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


def resolve_prior(env, prior) -> tuple[Policy | FixedActionPolicy, np.ndarray]:
    """The prior of a run on ``env`` and ``np.log`` of its probabilities.

    On a tabular game the prior is a (T, S, A) ``Policy`` of the game, on a
    sampled one (taxi) an (A,) action distribution, held as a
    ``FixedActionPolicy``; None is the uniform prior on either.  Anything
    else, or an entry that is not finite and positive, is a ``ConfigError``
    naming the prior."""
    tabular = isinstance(env, EnvironmentSpec)
    shape = (env.horizon, env.num_states, env.num_actions) if tabular else (env.num_actions,)
    if prior is None:
        prior = Policy.uniform(*shape) if tabular else np.full(shape, 1.0 / env.num_actions)
    probs = None
    if isinstance(prior, Policy) == tabular:  # a Policy only on a tabular game
        try:
            probs = prior.per_time_state if tabular else np.asarray(prior, dtype=np.float64)
        except (TypeError, ValueError):
            pass
    if probs is None or probs.shape != shape:
        raise ConfigError(
            f"the prior on {env.name!r} needs {shape} as "
            f"{'a Policy' if tabular else 'an action distribution'}, got "
            f"{type(prior).__name__}" + ("" if probs is None else f" of shape {probs.shape}")
        )
    if not np.all((0.0 < probs) & (probs < np.inf)):
        raise ConfigError(f"the prior on {env.name!r} needs finite, strictly positive entries")
    try:
        policy = prior if tabular else FixedActionPolicy(env.num_actions, probs)
    except ConfigError as exc:
        raise ConfigError(f"the prior on {env.name!r}: {exc}") from exc
    return policy, np.log(probs)


def _iterate(
    env: EnvironmentSpec, cfg: SolverConfig, etas: list[float] | None = None
) -> IterationLog:
    """The skeleton with the tabular step.  Each induced flow gets its tables
    built once and one backward sweep over them, whose stacked columns are
    the exploitability's best response and policy evaluation and, in relent
    mode, the soft Q of the next policy step (which otherwise reuses the best
    response's Q).  A flow mixed by fictitious play is no policy's induced
    flow, so it gets tables, and a Q for the policy step, of its own.

    The softmax policy is ``softmax(logits + q / eta)``, the logits those of
    the prior.  At a phase boundary the logits become that last sum, or the
    log of the last policy if policy averaging mixed it, so a policy that
    underflowed to an exact 0 is still a usable prior; the soft column's
    prior becomes the last policy.  The new phase starts on that policy's
    induced flow, so its tables stay, and in boltzmann mode its Q too."""
    dp.check_tabular(env)
    prior, logits = resolve_prior(env, cfg.prior)
    relent = cfg.mode == "relent"
    tables = q = z = None  # the last induced flow's tables, the policy step's Q, the last sum

    def step(k: int, eta: float | None, mu: MeanField, pi: Policy | None):
        nonlocal prior, logits, tables, q, z
        if k == 0 and pi is not None:  # a new phase: the last policy becomes the prior
            if cfg.fp_average_policy:  # a 0 of the mixed policy is a logit of -inf
                with np.errstate(divide="ignore"):
                    logits = np.log(pi.per_time_state)
            else:  # shifted to stay bounded
                logits = z - z.max(axis=2, keepdims=True)
            prior, q = pi, None if relent else q
        if tables is None or tables.mu is not mu:
            tables = q = None  # free the unmixed flow's tables first
            tables = dp.flow_tables(env, mu)
        soft = (eta, prior) if relent else None
        if q is None:
            q = dp.backward_sweep(env, tables, hard=not relent, soft=soft)[0]
        if cfg.mode == "exact":
            pi_new = dp.greedy_policy(q)
        else:
            z = logits + q / eta
            pi_new = Policy(dp.softmax(z))
        if cfg.fp_average_policy and k > 0:
            pi_new = mix(pi_new, pi, 1.0 / (k + 1))
        tables = q = None  # one flow's tables alive at a time
        tables = dp.flow_tables(env, dp.induced_mean_field(env, pi_new))
        qstar, qpi, *qsoft = dp.backward_sweep(env, tables, hard=True, pi=pi_new, soft=soft)
        q = qsoft[0] if relent else qstar
        return pi_new, exact_report(env, pi_new, qstar, qpi), tables.mu

    mu = cfg.initial_mean_field or dp.induced_mean_field(env, prior)
    return fixed_point_loop(mu, step, cfg, etas)


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
    """Softmax iteration in ``cfg.outer_iterations`` temperature phases of
    ``cfg.inner``: each phase re-anchors the prior at the last policy and
    multiplies the temperature by ``cfg.c``."""
    etas = accumulate([cfg.c] * (cfg.outer_iterations - 1), operator.mul, initial=cfg.inner.eta)
    return _iterate(env, cfg.inner, list(etas))
