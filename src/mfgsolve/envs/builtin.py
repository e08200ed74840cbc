"""The four benchmark games: LR, its symmetric toy variant, RPS, and SIS."""

from __future__ import annotations

import numpy as np

from .base import EnvironmentSpec


def _lr_like(name: str, left_weight: float, right_weight: float) -> EnvironmentSpec:
    # States C, L, R; actions L, R pick the next state directly; everyone
    # starts at C and is punished in proportion to the crowd sharing their
    # state, weighted per side.
    num_states, num_actions = 3, 2
    transition_base = np.zeros((num_states, num_actions, num_states))
    transition_base[:, 0, 1] = 1.0  # action L -> state L
    transition_base[:, 1, 2] = 1.0  # action R -> state R
    reward_coef = np.zeros((num_states, num_actions, num_states))
    reward_coef[1, :, 1] = -left_weight
    reward_coef[2, :, 2] = -right_weight
    return EnvironmentSpec(
        name=name,
        horizon=2,
        initial_dist=[1.0, 0.0, 0.0],
        reward_base=np.zeros((num_states, num_actions)),
        transition_base=transition_base,
        reward_mu_coef=reward_coef,
        state_labels=("C", "L", "R"),
        action_labels=("L", "R"),
    )


def make_lr() -> EnvironmentSpec:
    """Crowd-aversion choice game where the right side is punished twice as hard."""
    return _lr_like("lr", left_weight=1.0, right_weight=2.0)


def make_toy_lr() -> EnvironmentSpec:
    """Symmetric variant: both sides punished equally, so the unique
    equilibrium first move is the 50/50 split."""
    return _lr_like("toy_lr", left_weight=1.0, right_weight=1.0)


def make_rps() -> EnvironmentSpec:
    """Non-zero-sum rock-paper-scissors against the crowd.

    Everyone starts in a neutral state, one action picks rock/paper/scissors;
    the reward at the chosen state weighs beaten mass against beating mass
    with asymmetric factors (2/-1, 4/-2, 6/-3), so the uniform policy is not
    an equilibrium.
    """
    num_states, num_actions = 4, 3  # states 0, R, P, S
    transition_base = np.zeros((num_states, num_actions, num_states))
    for a in range(num_actions):
        transition_base[:, a, a + 1] = 1.0
    reward_coef = np.zeros((num_states, num_actions, num_states))
    reward_coef[1, :] = [0.0, 0.0, -1.0, 2.0]   # at R: 2 mu(S) - mu(P)
    reward_coef[2, :] = [0.0, 4.0, 0.0, -2.0]   # at P: 4 mu(R) - 2 mu(S)
    reward_coef[3, :] = [0.0, -3.0, 6.0, 0.0]   # at S: 6 mu(P) - 3 mu(R)
    return EnvironmentSpec(
        name="rps",
        horizon=2,
        initial_dist=[1.0, 0.0, 0.0, 0.0],
        reward_base=np.zeros((num_states, num_actions)),
        transition_base=transition_base,
        reward_mu_coef=reward_coef,
        state_labels=("0", "R", "P", "S"),
        action_labels=("R", "P", "S"),
    )


def make_sis() -> EnvironmentSpec:
    """Epidemic game: susceptible agents choose between going out and
    distancing.

    Going out while susceptible risks infection at rate 0.81 times the
    infected share; the infected recover with probability 0.3 regardless of
    action.  Being infected costs 1 per step and distancing costs 0.5.
    """
    num_states, num_actions = 2, 2  # states S, I; actions U (go out), D (distance)
    transition_base = np.zeros((num_states, num_actions, num_states))
    transition_base[0, 0] = [1.0, 0.0]  # overwritten by the mu term below
    transition_base[0, 1] = [1.0, 0.0]  # distancing never infects
    transition_base[1, :] = [0.3, 0.7]  # recovery chance per step
    transition_coef = np.zeros((num_states, num_actions, num_states, num_states))
    transition_coef[0, 0, 0, 1] = -0.81  # P(stay S | U) = 1 - 0.81 mu(I)
    transition_coef[0, 0, 1, 1] = 0.81   # P(become I | U) = 0.81 mu(I)
    reward_base = np.array([[0.0, -0.5], [-1.0, -1.5]])
    return EnvironmentSpec(
        name="sis",
        horizon=50,
        initial_dist=[0.4, 0.6],
        reward_base=reward_base,
        transition_base=transition_base,
        transition_mu_coef=transition_coef,
        state_labels=("S", "I"),
        action_labels=("U", "D"),
    )


BUILTIN_FACTORIES = {
    "lr": make_lr,
    "toy_lr": make_toy_lr,
    "rps": make_rps,
    "sis": make_sis,
}
