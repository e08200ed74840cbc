"""Particle-based population simulation and Monte-Carlo policy evaluation.

Used where the exact forward recursion or exact policy evaluation is out of
reach: replicate populations of particles are stepped forward against their
own empirical measure (frozen at the start of each step), and episode returns
are averaged in the MDP induced by a frozen mean field.

Two environment flavors are supported, both stepped as whole arrays of
particles or episodes: tabular ``EnvironmentSpec`` (integer states, sampled
from dense tables) and sampled environments such as the taxi game (int64
state codes from ``encode``, stepped by the environment's ``step_codes``
kernel, with ``mf_index`` mapping codes to mean-field slots).  Replicates
draw from generators spawned off one seed in a fixed order, so results
depend only on the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanField, Policy
from .envs.base import EnvironmentSpec
from .errors import DimensionError


@dataclass(frozen=True)
class ParticleConfig:
    """Replicate count, particles per replicate, and the master seed."""

    num_meanfields: int = 5
    num_particles: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.num_meanfields < 1 or self.num_particles < 1:
            raise ValueError("need at least one replicate and one particle")


@dataclass(frozen=True)
class EmpiricalMeanField(MeanField):
    """Across-replicate average of per-step empirical measures.

    Rows are rational with denominator ``num_meanfields * num_particles``.
    """

    num_meanfields: int = 1
    num_particles: int = 1
    seed: int = 0


def _sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Draw one category per row of a (n, k) probability matrix."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random((probs.shape[0], 1)) * cum[:, -1:]
    return (u >= cum).sum(axis=1)


class FixedActionPolicy:
    """One action distribution at every time and state, for sampled
    (non-tabular) environments; uniform unless ``probs`` is given."""

    def __init__(self, num_actions: int, probs=None):
        uniform = np.full(num_actions, 1.0 / num_actions)
        self.probs = uniform if probs is None else np.asarray(probs, dtype=np.float64)

    def action_probs(self, t: int, states) -> np.ndarray:
        return np.tile(self.probs, (len(states), 1))


def _particle_flow_tabular(
    env: EnvironmentSpec, pi: Policy, num_particles: int, rng: np.random.Generator
) -> np.ndarray:
    counts = np.zeros((env.horizon, env.num_states))
    states = _sample_rows(
        rng, np.tile(env.initial_dist, (num_particles, 1))
    )
    for t in range(env.horizon):
        g = np.bincount(states, minlength=env.num_states) / num_particles
        counts[t] = g
        actions = _sample_rows(rng, pi.per_time_state[t][states])
        kernel = env.transition_table(g)
        states = _sample_rows(rng, kernel[states, actions])
    return counts


def _initial_codes(env, n: int) -> np.ndarray:
    return np.full(n, env.encode(env.initial_state()), dtype=np.int64)


def _particle_flow_sampled(env, policy, num_particles: int, rng) -> np.ndarray:
    counts = np.zeros((env.horizon, env.mf_size))
    codes = _initial_codes(env, num_particles)
    for t in range(env.horizon):
        g = np.bincount(env.mf_index(codes), minlength=env.mf_size) / num_particles
        counts[t] = g
        actions = _sample_rows(rng, np.asarray(policy.action_probs(t, codes)))
        codes, _ = env.step_codes(rng, t, codes, actions, g)
    return counts


def simulate_mean_field(env, pi, cfg: ParticleConfig) -> EmpiricalMeanField:
    """Average empirical state flow over independent replicate populations.

    Each replicate holds ``num_particles`` particles; within one time step all
    particles see the same empirical measure (synchronous update).  Particles
    interact only within their replicate.
    """
    streams = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(cfg.seed).spawn(cfg.num_meanfields)
    ]
    tabular = isinstance(env, EnvironmentSpec)
    if tabular and not isinstance(pi, Policy):
        raise DimensionError("tabular environments need a tabular Policy")
    total = None
    for rng in streams:
        flow = (
            _particle_flow_tabular(env, pi, cfg.num_particles, rng)
            if tabular
            else _particle_flow_sampled(env, pi, cfg.num_particles, rng)
        )
        total = flow if total is None else total + flow
    return EmpiricalMeanField(
        per_time=total / cfg.num_meanfields,
        num_meanfields=cfg.num_meanfields,
        num_particles=cfg.num_particles,
        seed=cfg.seed,
    )


class TabularFrozenMdp:
    """Single-agent MDP with transitions/rewards evaluated at a frozen flow.

    Observations are the one-hot state with the raw time appended, matching
    what the Q-network consumes.
    """

    def __init__(self, env: EnvironmentSpec, mu: MeanField):
        if mu.per_time.shape != (env.horizon, env.num_states):
            raise DimensionError(
                f"mean field shape {mu.per_time.shape} does not match "
                f"({env.horizon}, {env.num_states})"
            )
        self.env = env
        self.horizon = env.horizon
        self.num_actions = env.num_actions
        self.obs_dim = env.num_states + 1
        self._rewards = np.stack(
            [env.reward_table(mu.at(t)) for t in range(env.horizon)]
        )
        self._kernels = np.stack(
            [env.transition_table(mu.at(t)) for t in range(env.horizon)]
        )

    def sample_initial(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.env.num_states, p=self.env.initial_dist))

    def step(self, rng: np.random.Generator, t: int, state: int, action: int):
        reward = float(self._rewards[t, state, action])
        nxt = int(rng.choice(self.env.num_states, p=self._kernels[t, state, action]))
        return reward, nxt

    def observe(self, t: int, state) -> np.ndarray:
        obs = np.zeros(self.obs_dim)
        obs[state] = 1.0
        obs[-1] = float(t)
        return obs

    # Vectorized rollout of many episodes at once (same distribution as
    # stepping them one by one; a single stream in fixed order).
    def episode_returns(
        self, rng: np.random.Generator, pi: Policy, episodes: int
    ) -> np.ndarray:
        states = _sample_rows(rng, np.tile(self.env.initial_dist, (episodes, 1)))
        returns = np.zeros(episodes)
        for t in range(self.horizon):
            actions = _sample_rows(rng, pi.per_time_state[t][states])
            returns += self._rewards[t, states, actions]
            states = _sample_rows(rng, self._kernels[t, states, actions])
        return returns


class SampledFrozenMdp:
    """Frozen-flow MDP view of a sampled environment (e.g. taxi)."""

    def __init__(self, env, mean_field: MeanField):
        if mean_field.per_time.shape != (env.horizon, env.mf_size):
            raise DimensionError(
                f"mean field shape {mean_field.per_time.shape} does not match "
                f"({env.horizon}, {env.mf_size})"
            )
        self.env = env
        self.mu = mean_field.per_time
        self.horizon = env.horizon
        self.num_actions = env.num_actions
        self.obs_dim = env.obs_dim

    def sample_initial(self, rng: np.random.Generator):
        return self.env.initial_state()

    def step(self, rng: np.random.Generator, t: int, state, action: int):
        nxt, reward = self.env.sample_step(rng, t, state, action, self.mu[t])
        return reward, nxt

    def observe(self, t: int, state) -> np.ndarray:
        return self.env.observe(t, state)

    # All episodes step together through the environment's array kernel.
    def episode_returns(self, rng, policy, episodes: int) -> np.ndarray:
        codes = _initial_codes(self.env, episodes)
        returns = np.zeros(episodes)
        for t in range(self.horizon):
            actions = _sample_rows(rng, np.asarray(policy.action_probs(t, codes)))
            codes, rewards = self.env.step_codes(rng, t, codes, actions, self.mu[t])
            returns += rewards
        return returns


def frozen_mdp(env, mu: MeanField):
    """Build the frozen-flow MDP for either environment flavor."""
    if isinstance(env, EnvironmentSpec):
        return TabularFrozenMdp(env, mu)
    return SampledFrozenMdp(env, mu)


def evaluate_policy_stochastic(
    env, mu: MeanField, pi, episodes: int, seed: int
) -> tuple[float, float]:
    """Mean episode return of the policy in the frozen-flow MDP, with the
    standard error of the mean (0 by convention for a single episode)."""
    if episodes < 1:
        raise ValueError("need at least one episode")
    mdp = frozen_mdp(env, mu)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    returns = mdp.episode_returns(rng, pi, episodes)
    mean = float(returns.mean())
    if episodes == 1:
        return mean, 0.0
    return mean, float(returns.std(ddof=1) / np.sqrt(episodes))
