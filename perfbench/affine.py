"""Seeded generator of random affine mean-field games for the ``affine_s100``
workload.

Both the reward and the transition kernel depend on the state distribution,
so no per-time table is constant.  Each kernel row is a mixture of a fixed
distribution and a mu-weighted average of S further distributions, which
keeps every row on the simplex for any mu; the coefficient array has
S * A * S * S entries (32 MB at S=100, A=4).
"""

from __future__ import annotations

import numpy as np

MIX = 0.5  # weight of the mu-dependent part of every kernel row
ALPHA = 0.05  # Dirichlet concentration: sparse rows give the flow structure


def generate(seed: int, num_states: int, num_actions: int) -> dict[str, np.ndarray]:
    """Inputs for ``mfgsolve.make_affine_env``; equal seeds give equal arrays."""
    rng = np.random.default_rng(np.random.SeedSequence([0xAFF1, seed]))
    S, A = num_states, num_actions
    base = rng.dirichlet(np.full(S, ALPHA), size=(S, A))
    # mixture[s, a, j] is the next-state distribution contributed by mass at j.
    mixture = rng.dirichlet(np.full(S, ALPHA), size=(S, A, S))
    return {
        "initial_dist": rng.dirichlet(np.ones(S)),
        "reward_base": rng.uniform(-1.0, 0.0, size=(S, A)),
        # Crowd aversion scaled by S so that a typical share 1/S still matters.
        "reward_mu_coef": -S * rng.uniform(0.0, 1.0, size=(S, A, S)),
        "transition_base": (1.0 - MIX) * base,
        "transition_mu_coef": MIX * mixture.transpose(0, 1, 3, 2).copy(),
    }
