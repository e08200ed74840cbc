"""Simplex-valued tensors (mean-field flows, Markov policies) and their metrics.

A mean field is a time-indexed family of distributions over states, a policy a
(time, state)-indexed family of distributions over actions.  Both are stored as
dense float64 arrays whose rows are probability vectors.  Constructors
normalize rows exactly after validating them to tolerance; all operations are
pure and inputs are frozen (read-only arrays), so values can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_number

SIMPLEX_ATOL = 1e-9


def as_distribution(values, *, what: str = "distribution") -> np.ndarray:
    """Validate an array whose last axis holds probability vectors.

    Entries must be nonnegative and each row must sum to 1 within
    ``SIMPLEX_ATOL``.  Returns a float64 copy with rows renormalized exactly
    and the write flag cleared.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise DimensionError(f"{what} needs at least one category")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(arr < 0.0):
        raise ValueError(f"{what} has negative entries (min {arr.min():g})")
    sums = arr.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > SIMPLEX_ATOL):
        worst = np.abs(sums - 1.0).max()
        raise ValueError(f"{what} rows deviate from sum 1 by {worst:g}")
    arr /= sums[..., None]
    arr.setflags(write=False)
    return arr


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Draw one category per row of a (n, k) probability matrix, one uniform
    per row in row order."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random((probs.shape[0], 1)) * cum[:, -1:]
    return (u >= cum).sum(axis=1)


@dataclass(frozen=True)
class MeanField:
    """State-distribution flow: ``per_time[t, s]`` with one row per time step."""

    per_time: np.ndarray

    def __post_init__(self):
        arr = as_distribution(self.per_time, what="mean field")
        if arr.ndim != 2:
            raise DimensionError(f"mean field must be 2-d (T, S), got {arr.ndim}-d")
        object.__setattr__(self, "per_time", arr)

    def at(self, t: int) -> np.ndarray:
        return self.per_time[t]


@dataclass(frozen=True)
class Policy:
    """Markov policy: ``per_time_state[t, s, a]``; also used as the prior."""

    per_time_state: np.ndarray

    def __post_init__(self):
        arr = as_distribution(self.per_time_state, what="policy")
        if arr.ndim != 3:
            raise DimensionError(
                f"policy must be 3-d (T, S, A), got {arr.ndim}-d"
            )
        object.__setattr__(self, "per_time_state", arr)

    def action_probs(self, t: int, states) -> np.ndarray:
        """(n, A) action rows of the given states at time t."""
        return self.per_time_state[t][states]

    def require_positive(self) -> "Policy":
        """Check suitability as a prior: every entry strictly positive."""
        if not np.all(self.per_time_state > 0.0):
            raise ValueError("prior policy must put positive mass on every action")
        return self

    @staticmethod
    def uniform(horizon: int, num_states: int, num_actions: int) -> "Policy":
        return Policy(
            np.full((horizon, num_states, num_actions), 1.0 / num_actions)
        )


def check_temperature(eta: float) -> float:
    """``eta`` as a float; a ``ConfigError`` unless it is a finite real > 0."""
    check_number("temperature eta", eta, 0.0, strict=True)
    return float(eta)


def tv_distance(p, q) -> float:
    """Total variation distance ``0.5 * sum |p - q|`` between two distributions."""
    return flow_distance(np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64))


def policy_distance(pi: Policy, pi2: Policy) -> float:
    """Sup metric over (t, s) of the total variation between action rows."""
    return flow_distance(pi.per_time_state, pi2.per_time_state)


def flow_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Sup metric over the leading axes of the total variation between the
    last-axis rows of two like-shaped arrays: over time between the state
    rows of two (T, S) flows, say."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum(axis=-1).max())


def meanfield_distance(mu: MeanField, mu2: MeanField) -> float:
    """``flow_distance`` between two mean fields."""
    return flow_distance(mu.per_time, mu2.per_time)


def mix(a, b, lam: float):
    """Convex combination ``lam * a + (1 - lam) * b`` of two like-shaped values.

    Accepts two policies or two mean fields; rows are renormalized so the
    result satisfies the simplex invariants exactly.  Used for the
    fictitious-play running averages.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if isinstance(a, Policy) and isinstance(b, Policy):
        x, y, ctor = a.per_time_state, b.per_time_state, Policy
    elif isinstance(a, MeanField) and isinstance(b, MeanField):
        x, y, ctor = a.per_time, b.per_time, MeanField
    else:
        raise TypeError("mix expects two Policy or two MeanField values")
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch {x.shape} vs {y.shape}")
    return ctor(lam * x + (1.0 - lam) * y)
