"""Shared game builders, and the test session's BLAS pin.

BLAS runs on one thread in the test session.  The suite's products are
small, and with BLAS's default thread count on a loaded 2-vCPU machine a
tier-1 run took 958 s against 123 s.  The variables below act when BLAS
loads; if a pytest plugin imported numpy before this file, BLAS is already
loaded, so the thread count is also set through OpenBLAS's own call.
"""

import ctypes
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from mfgsolve.core import MeanField, Policy  # noqa: E402
from mfgsolve.envs import EnvironmentSpec  # noqa: E402


def openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS this process
    loaded, or None where no OpenBLAS is found."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_ = getattr(lib, name.format("set"))
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_BLAS = openblas_threads()
if _BLAS is not None:
    _BLAS[1](1)


def random_env(rng, horizon, num_states, num_actions, name="random"):
    """Random finite game with mean-field-independent dynamics."""
    transition = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    reward = rng.normal(size=(num_states, num_actions))
    return EnvironmentSpec(
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
    return EnvironmentSpec(
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


def _vertex_game():
    # Valid inside the simplex, but at the flow e_2 the kernel row of (0, 0)
    # is [-0.01, 1.01, 0]; random probe flows almost never get that close.
    coef = np.zeros((3, 1, 3, 3))
    coef[0, 0, :, 2] = [-0.51, 0.51, 0.0]
    return {
        "name": "near_vertex",
        "horizon": 3,
        "num_states": 3,
        "num_actions": 1,
        "initial_dist": [1.0, 0.0, 0.0],
        "reward": {"base": [[0.0], [0.0], [0.0]]},
        "transition": {
            "base": [[[0.5, 0.5, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]],
            "mu_coef": coef.tolist(),
        },
    }


# Custom game documents that must be refused as config errors.
BAD_CUSTOM_GAMES = {
    "near_vertex": _vertex_game(),
    "rows_off_simplex": {
        "name": "leaky",
        "horizon": 2,
        "num_states": 2,
        "num_actions": 1,
        "initial_dist": [1.0, 0.0],
        "reward": {"base": [[0.0], [0.0]]},
        "transition": {"base": [[[0.5, 0.4]], [[0.0, 1.0]]]},
    },
    "missing_num_states": {
        "name": "unsized",
        "horizon": 2,
        "num_actions": 1,
        "initial_dist": [1.0, 0.0],
        "reward": {"base": [[0.0], [0.0]]},
        "transition": {"base": [[[1.0, 0.0]], [[0.0, 1.0]]]},
    },
}
# A horizon is an integer: 2.7 used to run with T = 2, and true with T = 1.
for _name, _horizon in (("fractional_horizon", 2.7), ("bool_horizon", True)):
    BAD_CUSTOM_GAMES[_name] = {
        "name": _name,
        "horizon": _horizon,
        "num_states": 2,
        "num_actions": 1,
        "initial_dist": [1.0, 0.0],
        "reward": {"base": [[0.0], [0.0]]},
        "transition": {"base": [[[1.0, 0.0]], [[0.0, 1.0]]]},
    }
# A misspelled key used to be dropped: the first game loaded with a constant
# kernel, the second with its top level's typo ignored.
_TWO_STATES = {
    "name": "two_states",
    "horizon": 2,
    "num_states": 2,
    "num_actions": 1,
    "initial_dist": [1.0, 0.0],
    "reward": {"base": [[0.0], [0.0]]},
    "transition": {"base": [[[0.5, 0.5]], [[0.0, 1.0]]]},
}
BAD_CUSTOM_GAMES["misspelled_mu_coef"] = {
    **_TWO_STATES,
    "transition": {
        **_TWO_STATES["transition"],
        "mu_coeff": [[[[0.1, 0.0], [-0.1, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]]]],
    },
}
BAD_CUSTOM_GAMES["unknown_top_level_key"] = {**_TWO_STATES, "horizn": 3}
