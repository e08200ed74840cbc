"""Particle-based population simulation and Monte-Carlo policy evaluation.

Used where the exact forward recursion or exact policy evaluation is out of
reach: replicate populations of particles are stepped forward against their
own empirical measure (frozen at the start of each step), and episode returns
are averaged in the MDP induced by a frozen mean field.

Every game is stepped through one sampling interface, as whole arrays of
particles or episodes: states are integer codes (the state of an
``EnvironmentSpec``, the ``encode`` code of a taxi), ``initial_codes`` draws
the start, ``step_codes`` makes one transition at a state distribution and
``mf_index`` maps codes to mean-field slots.  A policy is anything with
``action_probs(t, codes)``: a tabular ``Policy``, a ``FixedActionPolicy`` or
a network policy.  Replicates draw from generators spawned off one seed in a
fixed order, so results depend only on the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MeanField, Policy, as_distribution, sample_rows
from .dp import check_meanfield, check_policy
from .errors import ConfigError, check_number


@dataclass(frozen=True)
class ParticleConfig:
    """Replicate count, particles per replicate, and the master seed."""

    num_meanfields: int = 5
    num_particles: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_number("num_meanfields (replicates)", self.num_meanfields, 1, integer=True)
        check_number("num_particles", self.num_particles, 1, integer=True)


def seed_int(ss: np.random.SeedSequence) -> int:
    """An integer seed drawn from ``ss``: its first 32-bit state word."""
    return int(ss.generate_state(1)[0])


class FixedActionPolicy:
    """One action distribution at every time and state; uniform unless
    ``probs`` is given.  ``probs`` must be a distribution over the
    ``num_actions`` actions (else a ``ConfigError``), and is kept as given,
    not renormalized."""

    def __init__(self, num_actions: int, probs=None):
        if probs is None:
            probs = np.full(num_actions, 1.0 / num_actions)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (num_actions,):
            raise ConfigError(
                f"action probabilities of shape {probs.shape}, expected ({num_actions},)"
            )
        try:
            as_distribution(probs, what="action probabilities")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.probs = probs

    def action_probs(self, t: int, states) -> np.ndarray:
        return np.tile(self.probs, (len(states), 1))


def simulate_mean_field(env, pi, cfg: ParticleConfig) -> MeanField:
    """Average empirical state flow over independent replicate populations.

    Each replicate holds ``num_particles`` particles; within one time step all
    particles see the same empirical measure (synchronous update).  Particles
    interact only within their replicate.  Replicates step in lockstep, one
    ``action_probs`` call per step covering every particle, each drawing from
    its own generator as it would alone.  Rows are rational with denominator
    ``num_meanfields * num_particles``.
    """
    if isinstance(pi, Policy):
        check_policy(env, pi)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_meanfields)
    streams = [np.random.default_rng(s) for s in seeds]
    codes = np.stack([env.initial_codes(rng, cfg.num_particles) for rng in streams])
    total = np.zeros((env.horizon, env.mf_size))
    for t in range(env.horizon):
        probs = pi.action_probs(t, codes.reshape(-1)).reshape(*codes.shape, -1)
        for r, rng in enumerate(streams):
            g = np.bincount(env.mf_index(codes[r]), minlength=env.mf_size) / cfg.num_particles
            total[t] += g
            codes[r], _ = env.step_codes(rng, t, codes[r], sample_rows(rng, probs[r]), g)
    return MeanField(total / cfg.num_meanfields)


def evaluate_policy_stochastic(
    env, mu: MeanField, pi, episodes: int, seed: int
) -> tuple[float, float]:
    """Mean episode return of the policy in the frozen-flow MDP, with the
    standard error of the mean (0 by convention for a single episode).

    All episodes step together, drawing from one stream in a fixed order."""
    if episodes < 1:
        raise ValueError("need at least one episode")
    check_meanfield(env, mu)
    if isinstance(pi, Policy):
        check_policy(env, pi)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    codes = env.initial_codes(rng, episodes)
    returns = np.zeros(episodes)
    for t in range(env.horizon):
        actions = sample_rows(rng, pi.action_probs(t, codes))
        codes, rewards = env.step_codes(rng, t, codes, actions, mu.at(t))
        returns += rewards
    se = 0.0 if episodes == 1 else float(returns.std(ddof=1) / np.sqrt(episodes))
    return float(returns.mean()), se
