"""Finite mean-field game environments: horizon, spaces, dynamics, rewards.

Transitions and rewards take the current state distribution as an argument,
which is what couples a single agent to the population.  Every tabular game
is affine in that distribution, so ``EnvironmentSpec`` stores its dynamics as
the affine coefficient arrays, and its table primitive, ``transition_table``
/ ``reward_table``, turns a state distribution into the dense kernel and
reward tables the dynamic-programming routines consume.  It takes one
distribution (S,), or a stack (n, S) such as a whole flow: a stack costs one
matrix product, which reads every coefficient once for all n tables.  A
kernel or reward that does not depend on the distribution has no
coefficient array, and its table is the base table itself.  A build whose
coefficients pass ``PARALLEL_MIN_BYTES`` splits its product into contiguous
blocks, one per CPU the process may use, run on a thread pool made at the
first such build; each block is the product the whole build makes for its
rows, so the tables are the same bit for bit.

On those arrays ``EnvironmentSpec`` also answers the sampling interface of
the taxi game (``initial_codes``, ``step_codes``, ``observe_codes``,
``mf_index``), so particle flows, rollouts and DQN training step every game
the same way, with states as integer codes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..core import SIMPLEX_ATOL, as_distribution, sample_rows
from ..errors import ConfigError, DimensionError, check_number


@dataclass(frozen=True)
class EnvironmentSpec:
    """A finite MFG (T, S, A, mu0, p, r) whose reward and kernel are affine in
    the state distribution ``mu``:

    ``r(s, a, mu) = reward_base[s, a] + reward_mu_coef[s, a] . mu`` and
    ``p(s' | s, a, mu) = transition_base[s, a, s'] + transition_mu_coef[s, a, s'] . mu``.

    ``num_states`` and ``num_actions`` are read off ``reward_base``; an absent
    coefficient stays None (constant kernels and mu-free rewards), so nothing
    multiplies zeros.  The arrays are stored C-contiguous, so a game's table
    bits do not depend on the layout its arrays came in (a pickled copy
    builds the same tables).  Immutable and shareable; ``validate_dynamics``
    checks that the kernel is a distribution at every ``mu``.
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
        check_number("horizon", self.horizon, 1, integer=True)
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
                continue
            arr = np.ascontiguousarray(value, dtype=np.float64)
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

    def transition_table(self, mu: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Dense kernel ``P[s, a, s']`` at a state distribution ``mu`` (S,),
        or ``P[i, s, a, s']`` at each row ``mu[i]`` of a stack (n, S);
        written into ``out`` and returned, if it is given."""
        return _affine(self.transition_base, self.transition_mu_coef, mu, self.num_states, out)

    def reward_table(self, mu: np.ndarray) -> np.ndarray:
        """Dense rewards ``R[s, a]`` at a state distribution ``mu`` (S,), or
        ``R[i, s, a]`` at each row ``mu[i]`` of a stack (n, S)."""
        return _affine(self.reward_base, self.reward_mu_coef, mu, 1)

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

            def at_pairs(base, coef, pair_rows):
                return _affine(base[s, a], None if coef is None else coef[s, a], mu_t, pair_rows)

            rows = at_pairs(self.transition_base, self.transition_mu_coef, self.num_states)[inv]
            rewards = at_pairs(self.reward_base, self.reward_mu_coef, 1)[inv]
        else:
            rows = self.transition_table(mu_t)[codes, actions]
            rewards = self.reward_table(mu_t)[codes, actions]
        return sample_rows(rng, rows), rewards

    def observe_codes(self, t, codes: np.ndarray) -> np.ndarray:
        """(n, obs_dim) network inputs of the states ``codes`` at time ``t``,
        a scalar or one time per row ((n,) array)."""
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
        of ``transition_mu_coef`` is allocated.  A constant kernel is its
        own single vertex.
        """
        coef = self.transition_mu_coef
        for s in range(self.num_states):
            # vertices[a, s', j]: the kernel row of (s, a) at the flow e_j.
            vertices = self.transition_base[s, :, :, None] + (0.0 if coef is None else coef[s])
            # Negated comparisons, so that NaN fails them too.
            checks = (
                (~(vertices >= -SIMPLEX_ATOL).all(axis=1), "has negative mass"),
                (~(np.abs(vertices.sum(axis=1) - 1.0) <= SIMPLEX_ATOL), "does not sum to 1"),
            )
            for bad, what in checks:
                if bad.any():
                    a, j = np.argwhere(bad)[0]
                    raise ValueError(f"transition({s}, {a}) {what} at the flow e_{j}")
        for arr in (self.reward_base, self.reward_mu_coef):
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError("non-finite reward coefficient")


# A table build splits its coefficient product across threads once the
# coefficients pass this size.  Below it the array fits in the caches and a
# thread hand-off costs more than it saves: on a 2-vCPU Xeon (2 MiB of L2 per
# core, OpenBLAS on one thread) a one-distribution kernel build took 0.28 ms
# whole and 0.26 ms split in two at 4 MB of coefficients, 0.12 against 0.13
# ms at 2 MB and 4.4 against 2.1 to 2.6 ms at 32 MB.  A stack of 19
# distributions gains from about 2 MB on (1.2 against 0.86 ms at 4 MB).
PARALLEL_MIN_BYTES = 4 << 20
# A stack's block edges fall on multiples of this many columns, so every
# block spans at least that many.  OpenBLAS computes an output column bit for
# bit alike in any block that runs the whole product's kernel, but a block
# edge off its 8-column step, or a block of at most 1200 outputs (where it
# takes its small-product kernel), changes the rounding of some columns.
STACK_BLOCK_COLUMNS = 1280

_threads: int | None = None  # threads a large build may use; None until needed
_pool = None  # the ThreadPoolExecutor for all but one of them, made on first use
_fork_hooked = False


def _process_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _table_threads() -> int:
    global _threads
    if _threads is None:
        _threads = _process_cpus()
    return _threads


def _set_table_threads(n: int) -> None:
    """Let large table builds use ``n`` threads in this process (a worker
    of ``cli.run --workers N`` gets its share of the CPUs)."""
    global _threads, _pool
    if _pool is not None:
        _pool.shutdown(wait=False)
    _threads, _pool = n, None


def _drop_pool() -> None:
    # A forked child has none of the parent's threads, and an inherited
    # executor would queue its blocks for them forever.
    global _pool
    _pool = None


def _run_blocks(product, size: int, step: int) -> None:
    """``product(lo, hi)`` over at most one contiguous block per table
    thread of ``range(size)``, the block edges on multiples of ``step``;
    the calling thread computes the first block."""
    global _pool, _fork_hooked
    units = size // step
    k = min(_threads, units)
    if k < 2:
        product(0, size)
        return
    edges = [step * (units * i // k) for i in range(k)] + [size]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        if not _fork_hooked and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_drop_pool)
            _fork_hooked = True
        _pool = ThreadPoolExecutor(_threads - 1, thread_name_prefix="mfgsolve-table")
    futures = [_pool.submit(product, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
    product(edges[0], edges[1])
    for future in futures:
        future.result()


def _affine(base, coef, mu, pair_rows: int, out=None) -> np.ndarray:
    """``base + coef . mu`` at one distribution ``mu`` (S,), or at each row of
    a stack ``mu`` (n, S) with the n tables stacked first, written into
    ``out`` (a C-contiguous array of the table's shape) if it is given.

    One distribution takes one product per (s, a) pair, of its (pair_rows, S)
    block of ``coef`` with ``mu`` (a matrix-vector product for a kernel, a
    dot product for a reward): the products ``step_codes`` takes for a few
    pairs, so a step's rows equal the table's bit for bit.  A stack is one
    matrix product against ``coef`` read as a (base.size, S) matrix, so each
    coefficient is loaded once for the whole stack.  Either product is
    written into the table, and ``base`` is added in place.  Without a
    coefficient the table is ``base`` itself: read-only, broadcast over a
    stack, or copied into ``out``.

    Above ``PARALLEL_MIN_BYTES`` of coefficients the product runs in
    contiguous blocks, one per CPU the process may use: the (s, a) pairs of
    one distribution, or the columns of a stack's matrix product.  Each block
    is the product the whole build makes for its rows, so the table is the
    same bit for bit (the stack's blocks keep to ``STACK_BLOCK_COLUMNS``),
    and so are ``step_codes`` rows taken from a split build.
    """
    mu = np.asarray(mu)
    if coef is None:
        if out is None:
            return np.broadcast_to(base, mu.shape[:-1] + base.shape)
        np.copyto(out, base)
        return out
    table = np.empty(mu.shape[:-1] + base.shape) if out is None else out
    split = coef.nbytes > PARALLEL_MIN_BYTES and _table_threads() > 1
    if mu.ndim == 1:
        pairs, rows = coef.reshape(-1, pair_rows, len(mu)), table.reshape(-1, pair_rows)
        if split:
            _run_blocks(lambda lo, hi: np.matmul(pairs[lo:hi], mu, out=rows[lo:hi]), len(pairs), 1)
        else:
            np.matmul(pairs, mu, out=rows)
    else:
        columns = coef.reshape(-1, mu.shape[-1]).T
        rows = table.reshape(mu.shape[:-1] + columns.shape[1:])
        if split:
            _run_blocks(
                lambda lo, hi: np.matmul(mu, columns[:, lo:hi], out=rows[..., lo:hi]),
                columns.shape[1], STACK_BLOCK_COLUMNS,
            )
        else:
            np.matmul(mu, columns, out=rows)
    table += base
    return table


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
            horizon=doc["horizon"],
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
