"""Exact finite-horizon dynamic programming in the MDP induced by a fixed
mean field, on dense (T, S, A) tables; everything here is pure.

A flow's MDP is its rewards and kernels at every time step, ``FlowTables``.
``flow_tables`` builds them with one stacked table call each over the whole
flow, and each recursion over a frozen flow calls it unless the caller passes
the tables in.  There is one backward recursion, ``backward_sweep``, over a
stack of value columns that differ only in how they value the next time
slice: the hard max, a policy-weighted sum, a smooth max with a prior.  One
sweep gives several of them on one flow (a best response and a policy
evaluation, say) with one kernel product per step; ``optimal_q``,
``policy_q`` and ``soft_q`` are its one-column calls.  There is one forward
pass, ``induced_mean_field``, and one softmax-with-prior,
``softmax_with_prior``, which ``boltzmann_policy`` and the network policies
of ``rl`` share.
Greedy policies, objective values and the temperature threshold above which
the regularized fixed-point map is a contraction build on these.
Environments whose table would exceed ``MAX_TABLE_CELLS`` are refused; use
the particle/DQN path for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import MeanField, Policy, check_temperature
from .envs.base import EnvironmentSpec
from .errors import CapacityError, DimensionError

MAX_TABLE_CELLS = 1_000_000
ARGMAX_ATOL = 1e-10

TieRule = Literal["first_optimal", "uniform_over_optimal"]
_TIE_RULES = ("first_optimal", "uniform_over_optimal")


@dataclass(frozen=True)
class QTable:
    """Dense action values indexed by (t, s, a)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionError(f"Q table must be 3-d (T, S, A), got {arr.ndim}-d")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Q table has non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def check_tabular(env: EnvironmentSpec, max_cells: int = MAX_TABLE_CELLS) -> None:
    cells = env.horizon * env.num_states * env.num_actions
    if cells > max_cells:
        raise CapacityError(
            f"{env.name}: {cells} table cells exceed the exact-DP cap "
            f"{max_cells}; use the particle simulation / DQN pipeline"
        )


def check_meanfield(env, mu: MeanField) -> None:
    """Reject a flow that is not (T, mf_size) for the game; any game with the
    sampling interface, tabular or not."""
    if mu.per_time.shape != (env.horizon, env.mf_size):
        raise DimensionError(
            f"mean field shape {mu.per_time.shape} does not match environment "
            f"({env.horizon}, {env.mf_size})"
        )


def check_policy(env, pi: Policy) -> None:
    """Reject a tabular policy that is not (T, S, A) for the game."""
    expected = (env.horizon, env.num_states, env.num_actions)
    if pi.per_time_state.shape != expected:
        raise DimensionError(
            f"policy shape {pi.per_time_state.shape} does not match environment {expected}"
        )


@dataclass(frozen=True)
class FlowTables:
    """The MDP a frozen flow induces: ``rewards`` (T, S, A) and ``kernels``
    (T - 1, S, A, S) hold ``R[s, a]`` and ``P[s, a, s']`` at each ``mu.at(t)``.
    The last time step has a reward but no kernel, since nothing follows it."""

    mu: MeanField
    rewards: np.ndarray
    kernels: np.ndarray


def flow_tables(env: EnvironmentSpec, mu: MeanField) -> FlowTables:
    """Build the flow's rewards and kernels with one stacked table call each:
    every coefficient of the game is read once per flow, not once per step."""
    check_tabular(env)
    check_meanfield(env, mu)
    return FlowTables(
        mu=mu,
        rewards=env.reward_table(mu.per_time),
        kernels=env.transition_table(mu.per_time[:-1]),
    )


def _tables_of(
    env: EnvironmentSpec, mu: MeanField, tables: FlowTables | None
) -> FlowTables:
    """``tables`` checked against ``env`` and ``mu``, or built if None."""
    if tables is None:
        return flow_tables(env, mu)
    check_tabular(env)
    check_meanfield(env, mu)
    if tables.mu is not mu:
        raise ValueError("tables were built for a different mean field")
    return tables


def backward_sweep(
    env: EnvironmentSpec, mu: MeanField, hard: bool = False, pi: Policy | None = None,
    soft: tuple[float, Policy] | None = None, tables: FlowTables | None = None,
) -> list[QTable]:
    """The one backward recursion under a frozen flow, over a stack of value
    columns: the optimal Q if ``hard``, the Q of ``pi``, and the
    entropy-regularized Q of ``soft = (eta, prior)``, in that order.

    Each column is ``Q[T-1] = R[T-1]``, ``Q[t] = R[t] + P[t] @ v``, where
    ``v`` is the next slice's hard max, ``pi``-weighted sum or smooth max
    with the prior (shifted by the hard max, so tiny temperatures degrade
    toward it instead of overflowing).  Per step one max serves the hard
    column and the shift, one weighted sum the policy column and the
    prior-weighted exponentials, one kernel product every column.  Each row
    takes the operations it takes alone (a stacked ``P[t] @ V`` would not),
    so a column is the same bit for bit in any stack.  ``tables``, if
    given, must be ``flow_tables(env, mu)`` for this very ``mu``.
    """
    weights, eta = [], None
    if pi is not None:
        check_policy(env, pi)
        weights.append(pi.per_time_state)
    if soft is not None:
        eta, prior = soft
        check_policy(env, prior)
        weights.append(prior.require_positive().per_time_state)
        eta = check_temperature(eta)
    tabs = _tables_of(env, mu, tables)
    rewards, kernels = tabs.rewards, tabs.kernels
    h, smooth = int(hard), eta is not None
    n = len(weights) - smooth  # policy columns
    w = np.stack(weights, axis=1) if weights else None
    T, m = len(rewards), h + len(weights)
    q = np.empty((T, m) + rewards.shape[1:])
    q[T - 1] = rewards[T - 1]
    v = np.empty((m, rewards.shape[1]))
    v_cols = v[:, None, :, None]  # each column an (S, 1) matrix
    k_rows = kernels[:, None]  # each kernel broadcast over the columns
    for t in range(T - 2, -1, -1):
        q_next = q[t + 1]
        if hard or smooth:  # the hard value and the smooth shift; policy rows are replaced
            np.maximum.reduce(q_next, axis=2, out=v)
        if weights:
            x = w[t + 1] * q_next[h:]
            if smooth:
                np.multiply(w[t + 1, -1], np.exp((q_next[-1] - v[-1, :, None]) / eta), out=x[-1])
            sums = np.add.reduce(x, axis=2)
            v[h:h + n] = sums[:n]
            if smooth:
                v[-1] += eta * np.log(sums[-1])
        np.add(rewards[t], np.matmul(k_rows[t], v_cols)[..., 0], out=q[t])
    return [QTable(q[:, c]) for c in range(m)]


def optimal_q(env: EnvironmentSpec, mu: MeanField, tables: FlowTables | None = None) -> QTable:
    """Optimal action values under a frozen flow: the hard-maximum column of
    ``backward_sweep``; ``tables`` as there."""
    return backward_sweep(env, mu, hard=True, tables=tables)[0]


def soft_q(
    env: EnvironmentSpec, mu: MeanField, eta: float, prior: Policy,
    tables: FlowTables | None = None,
) -> QTable:
    """Entropy-regularized action values (smooth maximum with prior): the
    soft column of ``backward_sweep``; ``tables`` as there."""
    return backward_sweep(env, mu, soft=(eta, prior), tables=tables)[0]


def policy_q(
    env: EnvironmentSpec, mu: MeanField, pi: Policy, tables: FlowTables | None = None
) -> QTable:
    """Policy-evaluation table: the policy-weighted column of
    ``backward_sweep``; ``tables`` as there."""
    return backward_sweep(env, mu, pi=pi, tables=tables)[0]


def greedy_policy(q: QTable, tie: TieRule = "first_optimal") -> Policy:
    """Deterministic-support policy over the argmax set of every (t, s) row.

    Ties are resolved within absolute tolerance ``ARGMAX_ATOL``: either all
    mass on the first optimal action or spread evenly over all of them.
    """
    if tie not in _TIE_RULES:
        raise ValueError(f"unknown tie rule {tie!r}, expected one of {_TIE_RULES}")
    vals = q.values
    best = vals.max(axis=2, keepdims=True)
    optimal = vals >= best - ARGMAX_ATOL
    out = np.zeros_like(vals)
    if tie == "uniform_over_optimal":
        out = optimal / optimal.sum(axis=2, keepdims=True)
    else:
        first = optimal.argmax(axis=2)
        t_idx, s_idx = np.indices(first.shape)
        out[t_idx, s_idx, first] = 1.0
    return Policy(out)


def softmax_with_prior(q: np.ndarray, eta: float, prior: np.ndarray) -> np.ndarray:
    """Rows ``prior * exp(q / eta)`` over the last axis, renormalized.

    The per-row maximum is shifted out, so very low temperatures underflow
    to the greedy rows (weighted by the prior on exact ties) rather than
    produce NaN.  ``prior`` must be positive and broadcast against ``q``.
    """
    z = np.log(prior) + q / eta
    z -= z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


def boltzmann_policy(q: QTable, eta: float, prior: Policy) -> Policy:
    """Softmax-with-prior policy of a Q table; see ``softmax_with_prior``."""
    eta = check_temperature(eta)
    prior.require_positive()
    if q.values.shape != prior.per_time_state.shape:
        raise DimensionError(
            f"Q shape {q.values.shape} does not match prior "
            f"{prior.per_time_state.shape}"
        )
    return Policy(softmax_with_prior(q.values, eta, prior.per_time_state))


def induced_mean_field(env: EnvironmentSpec, pi: Policy) -> MeanField:
    """Forward pushforward of the initial distribution under the policy."""
    check_tabular(env)
    check_policy(env, pi)
    T = env.horizon
    mu = np.empty((T, env.num_states))
    mu[0] = env.initial_dist
    for t in range(T - 1):
        flow = pi.per_time_state[t][:, :, None] * env.transition_table(mu[t])
        mu[t + 1] = np.einsum("s,san->n", mu[t], flow)
    return MeanField(mu)


def objective_value(
    env: EnvironmentSpec, mu: MeanField, pi: Policy, tables: FlowTables | None = None
) -> float:
    """Expected total reward of the policy in the frozen-flow MDP.
    ``tables`` as in ``backward_sweep``."""
    return start_value(env, pi, policy_q(env, mu, pi, tables=tables))


def start_value(env: EnvironmentSpec, pi: Policy, qpi: QTable) -> float:
    """Expected total reward of ``pi`` read off its Q table ``qpi``."""
    first = np.sum(pi.per_time_state[0] * qpi.values[0], axis=1)
    return float(env.initial_dist @ first)


def regularized_objective(
    env: EnvironmentSpec,
    mu: MeanField,
    pi: Policy,
    eta: float,
    prior: Policy,
) -> float:
    """Expected total reward minus the temperature-weighted KL penalty
    against the prior: ``objective_value`` with each (t, s) reward row
    lowered by ``eta * KL(pi[t, s] || prior[t, s])``."""
    check_policy(env, pi)
    check_policy(env, prior)
    prior.require_positive()
    eta = check_temperature(eta)
    tabs = flow_tables(env, mu)
    p = pi.per_time_state
    log_ratio = np.log(np.where(p > 0.0, p, 1.0)) - np.log(prior.per_time_state)
    kl = np.sum(np.where(p > 0.0, p * log_ratio, 0.0), axis=2, keepdims=True)
    rewards = tabs.rewards - eta * kl
    return objective_value(env, mu, pi, tables=FlowTables(mu, rewards, tabs.kernels))


def contractivity_threshold(
    k_q: float, k_psi: float, num_actions: int, q_max: float, q_min: float
) -> float:
    """Temperature above which softmax fixed-point iteration must contract:
    ``|A| (|A| - 1) K_Q K_Psi q_max^2 / (2 q_min^2)``."""
    if num_actions < 1:
        raise ValueError("num_actions must be a positive integer")
    if k_q < 0.0 or k_psi < 0.0:
        raise ValueError("Lipschitz constants must be nonnegative")
    if q_min <= 0.0 or q_max < q_min:
        raise ValueError("prior bounds must satisfy 0 < q_min <= q_max")
    return (
        num_actions * (num_actions - 1) * k_q * k_psi * q_max**2 / (2.0 * q_min**2)
    )
