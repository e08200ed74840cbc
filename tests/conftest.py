import numpy as np

from mfgsolve.core import MeanField, Policy
from mfgsolve.envs import make_affine_env


def random_env(rng, horizon, num_states, num_actions, name="random"):
    """Random finite game with mean-field-independent dynamics."""
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    reward = rng.normal(size=(num_states, num_actions))
    return make_affine_env(
        name,
        horizon=horizon,
        initial_dist=rng.dirichlet(np.ones(num_states)),
        reward_base=reward,
        transition_base=transition,
    )


def random_policy(rng, env):
    return Policy(
        rng.dirichlet(
            np.ones(env.num_actions), size=(env.horizon, env.num_states)
        )
    )


def random_mean_field(rng, env):
    return MeanField(rng.dirichlet(np.ones(env.num_states), size=env.horizon))


def random_affine_env(
    rng, horizon, num_states, num_actions, mu_reward=True, mu_transition=True
):
    """Random affine game whose reward and kernel may depend on the flow.

    Each kernel row mixes a fixed distribution with a mu-weighted average of
    further distributions, so rows stay on the simplex for every mu.
    """
    S, A = num_states, num_actions
    mix = 0.5 if mu_transition else 0.0
    base = rng.dirichlet(np.ones(S), size=(S, A))
    mixture = rng.dirichlet(np.ones(S), size=(S, A, S))  # [s, a, j, s']
    return make_affine_env(
        "random_affine",
        horizon=horizon,
        initial_dist=rng.dirichlet(np.ones(S)),
        reward_base=rng.normal(size=(S, A)),
        transition_base=(1.0 - mix) * base,
        reward_mu_coef=rng.normal(size=(S, A, S)) if mu_reward else None,
        transition_mu_coef=(
            mix * mixture.transpose(0, 1, 3, 2) if mu_transition else None
        ),
    )
