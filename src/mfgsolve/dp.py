"""Exact finite-horizon dynamic programming in the MDP induced by a fixed
mean field, on dense (T, S, A) tables; everything here is pure.  Action
values are plain float64 (T, S, A) arrays.

A flow's MDP is its rewards and kernels at every time step, ``FlowTables``,
which carry the flow they were built at.  ``flow_tables`` builds them with
one stacked table call each over the whole flow.  There is one backward
recursion, ``backward_sweep``, which takes a flow's tables and runs over a
stack of value columns that differ only in how they value the next time
slice: the hard max, a policy-weighted sum, a smooth max with a prior.  One
sweep gives several of them on one flow (a best response and a policy
evaluation, say) with one kernel product per step; ``optimal_q``,
``policy_q`` and ``soft_q`` are its one-column calls, which take ``(env,
mu)`` and build the flow's tables themselves.  There is one forward
pass, ``induced_mean_field``, and one rule that turns action values into
policy rows, ``policy_rows``: greedy on the first optimal action without a
temperature, else ``softmax(logits + q / eta)`` with the prior's logits.
``greedy_policy`` and ``boltzmann_policy`` are its checked (T, S, A) entry
points, and the network policies of ``rl`` call it on their value rows; the
tabular solver step feeds ``softmax`` its carried prior logits plus
``q / eta`` itself.
Objective values and the temperature threshold above which
the regularized fixed-point map is a contraction build on these.
Environments whose table would exceed ``MAX_TABLE_CELLS`` are refused; use
the particle/DQN path for those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanField, Policy, check_temperature
from .envs.base import EnvironmentSpec
from .errors import CapacityError, DimensionError

MAX_TABLE_CELLS = 1_000_000
ARGMAX_ATOL = 1e-10


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


def backward_sweep(
    env: EnvironmentSpec, tables: FlowTables, hard: bool = False,
    pi: Policy | None = None, soft: tuple[float, Policy] | None = None,
) -> list[np.ndarray]:
    """The one backward recursion in the MDP of a frozen flow, given as its
    ``tables``, over a stack of value columns: the optimal Q if ``hard``,
    the Q of ``pi``, and the entropy-regularized Q of ``soft = (eta,
    prior)``, in that order, each a read-only (T, S, A) view of the one
    array the sweep fills.  The prior may hold zeros (a softmax policy that
    underflowed, say): its rows are distributions, so the smooth max runs
    over their support.

    Each column is ``Q[T-1] = R[T-1]``, ``Q[t] = R[t] + P[t] @ v``, where
    ``v`` is the next slice's hard max, ``pi``-weighted sum or smooth max
    with the prior (shifted by the hard max, so tiny temperatures degrade
    toward it instead of overflowing).  Per step one max serves the hard
    column and the shift, one weighted sum the policy column and the
    prior-weighted exponentials, one kernel product every column.  Each row
    takes the operations it takes alone (a stacked ``P[t] @ V`` would not),
    so a column is the same bit for bit in any stack.
    """
    weights, eta = [], None
    if pi is not None:
        check_policy(env, pi)
        weights.append(pi.per_time_state)
    if soft is not None:
        eta, prior = soft
        check_policy(env, prior)
        weights.append(prior.per_time_state)
        eta = check_temperature(eta)
    rewards, kernels = tables.rewards, tables.kernels
    h, smooth = int(hard), eta is not None
    n = len(weights) - smooth  # policy columns
    T, m = len(rewards), h + len(weights)
    q = np.empty((T, m) + rewards.shape[1:])
    q[T - 1] = rewards[T - 1]
    w = np.stack(weights, axis=1) if weights else q[:, :0]
    # Buffers made once: the next slice's values (each column an (S, 1) matrix),
    # the weighted rows, their sums, the soft exponent and log, the kernel products.
    v, kv = np.empty((m, rewards.shape[1])), np.empty(q.shape[1:] + (1,))
    x, sums = np.empty(w.shape[1:]), np.empty(w.shape[1:3])
    v_cols, v_pol, v_soft, kv_cols = v[:, None, :, None], v[h:h + n], v[m - smooth:], kv[..., 0]
    x_soft, sums_pol, sums_soft, shift = x[n:], sums[:n], sums[n:], v[m - smooth:, :, None]
    z, log_sum = np.empty(x_soft.shape), np.empty(sums_soft.shape)
    # Per step t = T - 2, ..., 0: q[t]; q[t + 1] whole, weighted and soft;
    # the weights at t + 1 and their soft row; P[t]; R[t].
    steps = zip(
        q[-2::-1], q[:0:-1], q[:0:-1, h:], q[:0:-1, m - smooth:], w[:0:-1], w[:0:-1, n:],
        kernels[::-1, None], rewards[-2::-1],
    )
    for q_t, q_next, q_weighted, q_soft, w_next, w_soft, k_row, r_t in steps:
        if hard or smooth:  # the hard value and the smooth shift; policy rows are replaced
            np.maximum.reduce(q_next, axis=2, out=v)
        if weights:
            np.multiply(w_next, q_weighted, out=x)
            if smooth:
                np.divide(np.subtract(q_soft, shift, out=z), eta, out=z)
                np.multiply(w_soft, np.exp(z, out=z), out=x_soft)
            np.add.reduce(x, axis=2, out=sums)
            v_pol[...] = sums_pol
            if smooth:
                np.multiply(eta, np.log(sums_soft, out=log_sum), out=log_sum)
                np.add(v_soft, log_sum, out=v_soft)
        np.matmul(k_row, v_cols, out=kv)
        np.add(r_t, kv_cols, out=q_t)
    q.setflags(write=False)
    return [q[:, c] for c in range(m)]


def optimal_q(env: EnvironmentSpec, mu: MeanField) -> np.ndarray:
    """Optimal action values under a frozen flow: the hard-maximum column of
    ``backward_sweep`` over the flow's tables."""
    return backward_sweep(env, flow_tables(env, mu), hard=True)[0]


def soft_q(env: EnvironmentSpec, mu: MeanField, eta: float, prior: Policy) -> np.ndarray:
    """Entropy-regularized action values (smooth maximum with a positive
    prior): the soft column of ``backward_sweep`` over the flow's tables."""
    return backward_sweep(env, flow_tables(env, mu), soft=(eta, prior.require_positive()))[0]


def policy_q(env: EnvironmentSpec, mu: MeanField, pi: Policy) -> np.ndarray:
    """Policy-evaluation table: the policy-weighted column of
    ``backward_sweep`` over the flow's tables."""
    return backward_sweep(env, flow_tables(env, mu), pi=pi)[0]


def softmax(z: np.ndarray) -> np.ndarray:
    """Rows ``exp(z)`` over the last axis, renormalized.  The per-row
    maximum is shifted out first, so entries far below it underflow to 0
    rather than produce NaN."""
    w = np.exp(z - z.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def policy_rows(q: np.ndarray, eta: float | None = None, logits=None) -> np.ndarray:
    """The policy rows of action values ``q`` over the last axis, for any
    leading shape.  Without a temperature each row is one-hot on the first
    action within ``ARGMAX_ATOL`` of the row maximum; with one it is
    ``softmax(logits + q / eta)``, the logits those of the prior (none for
    the uniform one), which must broadcast against ``q``.  Very low
    temperatures underflow to the greedy rows, weighted by the prior on
    exact ties.  Nothing is checked here."""
    if eta is None:
        first = (q >= q.max(axis=-1, keepdims=True) - ARGMAX_ATOL).argmax(axis=-1)
        return (np.arange(q.shape[-1]) == first[..., None]).astype(q.dtype)
    return softmax(q / eta if logits is None else logits + q / eta)


def _checked_q(q) -> np.ndarray:
    """``q`` as a float64 array, refused unless it is a finite (T, S, A)."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 3:
        raise DimensionError(f"Q table must be 3-d (T, S, A), got {q.ndim}-d")
    if not np.all(np.isfinite(q)):
        raise ValueError("Q table has non-finite entries")
    return q


def greedy_policy(q: np.ndarray) -> Policy:
    """Deterministic policy on the first optimal action of every (t, s) row
    of a (T, S, A) table; see ``policy_rows``."""
    return Policy(policy_rows(_checked_q(q)))


def boltzmann_policy(q: np.ndarray, eta: float, prior: Policy) -> Policy:
    """Softmax-with-prior policy of a (T, S, A) table; see ``policy_rows``."""
    q = _checked_q(q)
    eta = check_temperature(eta)
    prior.require_positive()
    if q.shape != prior.per_time_state.shape:
        raise DimensionError(
            f"Q shape {q.shape} does not match prior {prior.per_time_state.shape}"
        )
    return Policy(policy_rows(q, eta, np.log(prior.per_time_state)))


def induced_mean_field(env: EnvironmentSpec, pi: Policy) -> MeanField:
    """Forward pushforward of the initial distribution under the policy; each
    step's kernel is built into one buffer and weighted by ``pi[t]`` in place."""
    check_tabular(env)
    check_policy(env, pi)
    mu = np.empty((env.horizon, env.num_states))
    mu[0] = env.initial_dist
    flow = np.empty(env.transition_base.shape)
    for w, m, m_next in zip(pi.per_time_state[:, :, :, None], mu, mu[1:]):
        np.multiply(w, env.transition_table(m, out=flow), out=flow)
        np.einsum("s,san->n", m, flow, out=m_next)
    return MeanField(mu)


def objective_value(env: EnvironmentSpec, mu: MeanField, pi: Policy) -> float:
    """Expected total reward of the policy in the frozen-flow MDP."""
    return start_value(env, pi, policy_q(env, mu, pi))


def start_value(env: EnvironmentSpec, pi: Policy, qpi: np.ndarray) -> float:
    """Expected total reward of ``pi`` read off its Q table ``qpi``."""
    first = np.sum(pi.per_time_state[0] * qpi[0], axis=1)
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
    adjusted = FlowTables(mu, tabs.rewards - eta * kl, tabs.kernels)
    return start_value(env, pi, backward_sweep(env, adjusted, pi=pi)[0])


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
