"""Finite mean-field game environments: horizon, spaces, dynamics, rewards.

Transitions and rewards take the current state distribution as an argument,
which is what couples a single agent to the population.  ``EnvironmentSpec``
keeps them as per-(s, a) callables; its table primitive, ``transition_table``
/ ``reward_table``, turns one state distribution into the dense kernel and
reward tables the dynamic-programming routines consume.  Affine games supply
vectorized tables (one batched matrix-vector product each); a game given only
by its callables gets the same tables from a loop over (s, a).

On those tables ``EnvironmentSpec`` also answers the sampling interface of
the taxi game (``initial_codes``, ``step_codes``, ``observe_codes``,
``mf_index``), so particle flows, rollouts and DQN training step every game
the same way, with states as integer codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core import SIMPLEX_ATOL, as_distribution, sample_rows
from ..errors import ConfigError, DimensionError

TransitionFn = Callable[[int, int, np.ndarray], np.ndarray]
RewardFn = Callable[[int, int, np.ndarray], float]
TableFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EnvironmentSpec:
    """A finite MFG: (T, S, A, mu0, p, r) with population-dependent dynamics.

    ``transition(s, a, mu_t)`` returns a distribution over next states and
    ``reward(s, a, mu_t)`` a finite real; both must accept any valid state
    distribution ``mu_t``.  Immutable and shareable; the callables are pure.
    ``dense_transition(mu_t)`` and ``dense_reward(mu_t)``, when given, return
    the whole (S, A, S) kernel and (S, A) reward table at once and must agree
    with the per-(s, a) callables; without them the tables are built by
    calling ``transition`` and ``reward`` for every (s, a).
    """

    name: str
    horizon: int
    num_states: int
    num_actions: int
    initial_dist: np.ndarray
    transition: TransitionFn
    reward: RewardFn
    state_labels: tuple[str, ...] | None = None
    action_labels: tuple[str, ...] | None = None
    dense_transition: TableFn | None = None
    dense_reward: TableFn | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.num_states < 1 or self.num_actions < 1:
            raise ConfigError("state and action spaces must be nonempty")
        mu0 = as_distribution(self.initial_dist, what="initial distribution")
        if mu0.shape != (self.num_states,):
            raise DimensionError(
                f"initial distribution has {mu0.shape[0]} entries, "
                f"expected {self.num_states}"
            )
        object.__setattr__(self, "initial_dist", mu0)

    def transition_row(self, s: int, a: int, mu_t: np.ndarray) -> np.ndarray:
        row = np.asarray(self.transition(s, a, mu_t), dtype=np.float64)
        if row.shape != (self.num_states,):
            raise DimensionError(
                f"transition({s}, {a}) returned shape {row.shape}, "
                f"expected ({self.num_states},)"
            )
        return row

    def transition_table(self, mu_t: np.ndarray) -> np.ndarray:
        """Dense kernel ``P[s, a, s']`` at the given state distribution."""
        if self.dense_transition is not None:
            return self.dense_transition(mu_t)
        p = np.empty((self.num_states, self.num_actions, self.num_states))
        for s in range(self.num_states):
            for a in range(self.num_actions):
                p[s, a] = self.transition_row(s, a, mu_t)
        return p

    def reward_table(self, mu_t: np.ndarray) -> np.ndarray:
        """Dense rewards ``R[s, a]`` at the given state distribution."""
        if self.dense_reward is not None:
            return self.dense_reward(mu_t)
        r = np.empty((self.num_states, self.num_actions))
        for s in range(self.num_states):
            for a in range(self.num_actions):
                r[s, a] = self.reward(s, a, mu_t)
        return r

    # Sampling interface, shared with games too large to tabulate (taxi):
    # a state is an integer code, here the state index itself.

    @property
    def mf_size(self) -> int:
        """Length of a state distribution: one slot per state."""
        return self.num_states

    @property
    def obs_dim(self) -> int:
        """Width of an ``observe_codes`` row: one-hot state, then the time."""
        return self.num_states + 1

    def mf_index(self, codes: np.ndarray) -> np.ndarray:
        """Mean-field slot of each state: the state itself."""
        return codes

    def initial_codes(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n states drawn from the initial distribution."""
        return sample_rows(rng, np.tile(self.initial_dist, (n, 1)))

    def step_codes(
        self,
        rng: np.random.Generator,
        t: int,
        codes: np.ndarray,
        actions: np.ndarray,
        mu_t: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One transition of n agents at the state distribution ``mu_t``:
        next states drawn from ``transition_table(mu_t)`` (one uniform per
        agent) and rewards read from ``reward_table(mu_t)``."""
        rows = self.transition_table(mu_t)[codes, actions]
        return sample_rows(rng, rows), self.reward_table(mu_t)[codes, actions]

    def observe_codes(self, t: int, codes: np.ndarray) -> np.ndarray:
        """(n, obs_dim) network inputs of the states at time t."""
        obs = np.zeros((len(codes), self.obs_dim))
        obs[np.arange(len(codes)), codes] = 1.0
        obs[:, -1] = t
        return obs

    def validate_dynamics(self, num_probes: int = 1000, seed: int = 0) -> None:
        """Probe random (s, a, mu) triples; raise if any kernel row is invalid."""
        rng = np.random.default_rng(seed)
        for _ in range(num_probes):
            s = int(rng.integers(self.num_states))
            a = int(rng.integers(self.num_actions))
            mu = rng.dirichlet(np.ones(self.num_states))
            row = self.transition_row(s, a, mu)
            if np.any(row < -SIMPLEX_ATOL):
                raise ValueError(f"negative transition mass at ({s}, {a})")
            if abs(row.sum() - 1.0) > SIMPLEX_ATOL:
                raise ValueError(
                    f"transition({s}, {a}) sums to {row.sum():.12f}"
                )
            if not np.isfinite(self.reward(s, a, mu)):
                raise ValueError(f"non-finite reward at ({s}, {a})")


def make_affine_env(
    name: str,
    horizon: int,
    initial_dist: Sequence[float],
    reward_base: np.ndarray,
    transition_base: np.ndarray,
    reward_mu_coef: np.ndarray | None = None,
    transition_mu_coef: np.ndarray | None = None,
    state_labels: Sequence[str] | None = None,
    action_labels: Sequence[str] | None = None,
) -> EnvironmentSpec:
    """Environment whose reward and kernel are affine in the state distribution.

    ``r(s, a, mu) = reward_base[s, a] + reward_mu_coef[s, a] . mu`` and
    ``p(s' | s, a, mu) = transition_base[s, a, s'] + transition_mu_coef[s, a, s'] . mu``.
    Covers every built-in tabular game (constant kernels are the zero-coef case).
    The dense tables broadcast the callables' products over every (s, a) at
    once; numpy evaluates each (s, a) item with the same BLAS routine as the
    callable, so the two agree bit for bit.
    """
    rb = np.asarray(reward_base, dtype=np.float64)
    tb = np.asarray(transition_base, dtype=np.float64)
    num_states, num_actions = rb.shape
    if tb.shape != (num_states, num_actions, num_states):
        raise DimensionError(
            f"transition base shape {tb.shape} does not match reward base {rb.shape}"
        )
    rc = (
        np.zeros((num_states, num_actions, num_states))
        if reward_mu_coef is None
        else np.asarray(reward_mu_coef, dtype=np.float64)
    )
    tc = (
        np.zeros((num_states, num_actions, num_states, num_states))
        if transition_mu_coef is None
        else np.asarray(transition_mu_coef, dtype=np.float64)
    )
    if rc.shape != (num_states, num_actions, num_states):
        raise DimensionError(f"reward coefficient shape {rc.shape} invalid")
    if tc.shape != (num_states, num_actions, num_states, num_states):
        raise DimensionError(f"transition coefficient shape {tc.shape} invalid")

    def transition(s: int, a: int, mu_t: np.ndarray) -> np.ndarray:
        return tb[s, a] + tc[s, a] @ mu_t

    def reward(s: int, a: int, mu_t: np.ndarray) -> float:
        return float(rb[s, a] + rc[s, a] @ mu_t)

    def dense_transition(mu_t: np.ndarray) -> np.ndarray:
        return tb + tc @ mu_t

    def dense_reward(mu_t: np.ndarray) -> np.ndarray:
        # (1, S) @ (S,) per (s, a) is a dot product, as in ``reward``.
        return rb + (rc[:, :, None, :] @ mu_t)[:, :, 0]

    return EnvironmentSpec(
        name=name,
        horizon=horizon,
        num_states=num_states,
        num_actions=num_actions,
        initial_dist=np.asarray(initial_dist, dtype=np.float64),
        transition=transition,
        reward=reward,
        state_labels=tuple(state_labels) if state_labels else None,
        action_labels=tuple(action_labels) if action_labels else None,
        dense_transition=dense_transition,
        dense_reward=dense_reward,
    )


def load_custom_env(path: str) -> EnvironmentSpec:
    """Load an affine-in-mu environment from a JSON document.

    Expected keys: ``name``, ``horizon``, ``num_states``, ``num_actions``,
    ``initial_dist``, ``reward: {base, mu_coef?}``, ``transition: {base,
    mu_coef?}`` and optional ``state_labels`` / ``action_labels``.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read environment file {path}: {exc}") from exc
    try:
        reward = doc["reward"]
        transition = doc["transition"]
        env = make_affine_env(
            name=doc.get("name", "custom"),
            horizon=int(doc["horizon"]),
            initial_dist=doc["initial_dist"],
            reward_base=np.asarray(reward["base"], dtype=np.float64),
            transition_base=np.asarray(transition["base"], dtype=np.float64),
            reward_mu_coef=(
                np.asarray(reward["mu_coef"], dtype=np.float64)
                if "mu_coef" in reward
                else None
            ),
            transition_mu_coef=(
                np.asarray(transition["mu_coef"], dtype=np.float64)
                if "mu_coef" in transition
                else None
            ),
            state_labels=doc.get("state_labels"),
            action_labels=doc.get("action_labels"),
        )
    except (KeyError, TypeError, ValueError, DimensionError) as exc:
        raise ConfigError(f"malformed environment file {path}: {exc}") from exc
    if env.num_states != int(doc["num_states"]) or env.num_actions != int(
        doc["num_actions"]
    ):
        raise ConfigError(
            f"{path}: declared sizes do not match the reward/transition tables"
        )
    env.validate_dynamics(num_probes=200)
    return env
