"""Finite mean-field game environments: horizon, spaces, dynamics, rewards.

Transitions and rewards take the current state distribution as an argument,
which is what couples a single agent to the population.  Every tabular game
is affine in that distribution, so ``EnvironmentSpec`` stores its dynamics as
the affine coefficient arrays, and its table primitive, ``transition_table``
/ ``reward_table``, turns one state distribution into the dense kernel and
reward tables the dynamic-programming routines consume (one batched
matrix-vector product each).

On those arrays ``EnvironmentSpec`` also answers the sampling interface of
the taxi game (``initial_codes``, ``step_codes``, ``observe_codes``,
``mf_index``), so particle flows, rollouts and DQN training step every game
the same way, with states as integer codes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..core import SIMPLEX_ATOL, as_distribution, sample_rows
from ..errors import ConfigError, DimensionError


@dataclass(frozen=True)
class EnvironmentSpec:
    """A finite MFG (T, S, A, mu0, p, r) whose reward and kernel are affine in
    the state distribution ``mu``:

    ``r(s, a, mu) = reward_base[s, a] + reward_mu_coef[s, a] . mu`` and
    ``p(s' | s, a, mu) = transition_base[s, a, s'] + transition_mu_coef[s, a, s'] . mu``.

    ``num_states`` and ``num_actions`` are read off ``reward_base``; an absent
    coefficient is zero (constant kernels and mu-free rewards).  Immutable
    and shareable; ``validate_dynamics`` checks that the kernel is a
    distribution at every ``mu``.
    """

    name: str
    horizon: int
    initial_dist: np.ndarray
    reward_base: np.ndarray
    transition_base: np.ndarray
    reward_mu_coef: np.ndarray | None = None
    transition_mu_coef: np.ndarray | None = None
    state_labels: tuple[str, ...] | None = None
    action_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        rb = np.asarray(self.reward_base, dtype=np.float64)
        if rb.ndim != 2:
            raise DimensionError(f"reward base has shape {rb.shape}, expected (S, A)")
        if rb.size == 0:
            raise ConfigError("state and action spaces must be nonempty")
        S, A = rb.shape
        for field_name, shape in (
            ("reward_base", (S, A)),
            ("transition_base", (S, A, S)),
            ("reward_mu_coef", (S, A, S)),
            ("transition_mu_coef", (S, A, S, S)),
        ):
            value = getattr(self, field_name)
            if value is None and field_name.endswith("_coef"):
                value = np.zeros(shape)
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != shape:
                raise DimensionError(
                    f"{field_name} has shape {arr.shape}, expected {shape}"
                )
            object.__setattr__(self, field_name, arr)
        mu0 = as_distribution(self.initial_dist, what="initial distribution")
        if mu0.shape != (S,):
            raise DimensionError(
                f"initial distribution has {mu0.shape[0]} entries, expected {S}"
            )
        object.__setattr__(self, "initial_dist", mu0)
        for field_name in ("state_labels", "action_labels"):
            labels = getattr(self, field_name)
            object.__setattr__(self, field_name, tuple(labels) if labels else None)

    @property
    def num_states(self) -> int:
        return self.reward_base.shape[0]

    @property
    def num_actions(self) -> int:
        return self.reward_base.shape[1]

    def transition_table(self, mu_t: np.ndarray) -> np.ndarray:
        """Dense kernel ``P[s, a, s']`` at the given state distribution."""
        return self.transition_base + self.transition_mu_coef @ mu_t

    def reward_table(self, mu_t: np.ndarray) -> np.ndarray:
        """Dense rewards ``R[s, a]`` at the given state distribution."""
        # (1, S) @ (S,) per (s, a): a dot product each, as ``step_codes`` takes it.
        return self.reward_base + (self.reward_mu_coef[:, :, None, :] @ mu_t)[:, :, 0]

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
        next states drawn from the agents' kernel rows (one uniform per
        agent) and their rewards.  Rows are built once per distinct
        (state, action) pair, and equal the same rows of
        ``transition_table(mu_t)`` and ``reward_table(mu_t)``.

        Building a pair's row copies its (S, S) coefficient block first,
        about three times the memory traffic of the full table's in-place
        matrix-vector product.  So the rows are built alone while the
        distinct pairs are fewer than a third of the S * A pairs, and are
        read off the full tables otherwise: a step never costs more than
        one table build."""
        flat = codes * self.num_actions + actions
        num_pairs = self.num_states * self.num_actions
        if 3 * np.count_nonzero(np.bincount(flat, minlength=num_pairs)) < num_pairs:
            pairs, inv = np.unique(flat, return_inverse=True)
            s, a = np.divmod(pairs, self.num_actions)
            rows = (self.transition_base[s, a] + self.transition_mu_coef[s, a] @ mu_t)[inv]
            rewards = (
                self.reward_base[s, a] + (self.reward_mu_coef[s, a][:, None, :] @ mu_t)[:, 0]
            )[inv]
        else:
            rows = self.transition_table(mu_t)[codes, actions]
            rewards = self.reward_table(mu_t)[codes, actions]
        return sample_rows(rng, rows), rewards

    def observe_codes(self, t: int, codes: np.ndarray) -> np.ndarray:
        """(n, obs_dim) network inputs of the states at time t."""
        obs = np.zeros((len(codes), self.obs_dim))
        obs[np.arange(len(codes)), codes] = 1.0
        obs[:, -1] = t
        return obs

    def validate_dynamics(self) -> None:
        """Raise ValueError unless the kernel is a distribution at every state
        distribution and the rewards are finite.

        The kernel at ``mu`` is the ``mu``-weighted mix of the S vertex
        kernels ``transition_base + transition_mu_coef[..., j]``, so it is
        valid on the whole simplex if and only if every vertex kernel is.
        They are checked one state s at a time, so no second array the size
        of ``transition_mu_coef`` is allocated.
        """
        for s in range(self.num_states):
            # vertices[a, s', j]: the kernel row of (s, a) at the flow e_j.
            vertices = self.transition_base[s, :, :, None] + self.transition_mu_coef[s]
            # Negated comparisons, so that NaN fails them too.
            checks = (
                (~(vertices >= -SIMPLEX_ATOL).all(axis=1), "has negative mass"),
                (~(np.abs(vertices.sum(axis=1) - 1.0) <= SIMPLEX_ATOL), "does not sum to 1"),
            )
            for bad, what in checks:
                if bad.any():
                    a, j = np.argwhere(bad)[0]
                    raise ValueError(f"transition({s}, {a}) {what} at the flow e_{j}")
        if not np.isfinite(self.reward_base).all() or not np.isfinite(self.reward_mu_coef).all():
            raise ValueError("non-finite reward coefficient")


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
        declared = (int(doc["num_states"]), int(doc["num_actions"]))
        env = EnvironmentSpec(
            name=doc.get("name", "custom"),
            horizon=int(doc["horizon"]),
            initial_dist=doc["initial_dist"],
            reward_base=reward["base"],
            transition_base=transition["base"],
            reward_mu_coef=reward.get("mu_coef"),
            transition_mu_coef=transition.get("mu_coef"),
            state_labels=doc.get("state_labels"),
            action_labels=doc.get("action_labels"),
        )
        if (env.num_states, env.num_actions) != declared:
            raise ValueError("declared sizes do not match the reward/transition tables")
        env.validate_dynamics()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed environment file {path}: {exc}") from exc
    return env
