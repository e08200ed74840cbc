import functools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BAD_CUSTOM_GAMES, random_affine_env
import mfgsolve
from mfgsolve import dp
from mfgsolve.core import SIMPLEX_ATOL, MeanField, Policy, sample_rows
from mfgsolve.envs import (
    EnvironmentSpec,
    load_custom_env,
    make_lr,
    make_rps,
    make_sis,
    make_toy_lr,
)
from mfgsolve.envs import base
from mfgsolve.errors import ConfigError


def mu_for(env, **mass):
    mu = np.zeros(env.num_states)
    labels = list(env.state_labels)
    for label, m in mass.items():
        mu[labels.index(label)] = m
    rest = 1.0 - mu.sum()
    mu[0] += rest
    return mu


class TestLr:
    def test_shape(self):
        env = make_lr()
        assert (env.horizon, env.num_states, env.num_actions) == (2, 3, 2)
        np.testing.assert_allclose(env.initial_dist, [1, 0, 0])

    def test_left_reward(self):
        env = make_lr()
        mu = mu_for(env, L=0.4)
        for a in range(2):
            assert env.reward_table(mu)[1, a] == pytest.approx(-0.4)

    def test_right_reward_doubled(self):
        env = make_lr()
        mu = mu_for(env, R=0.4)
        for a in range(2):
            assert env.reward_table(mu)[2, a] == pytest.approx(-0.8)

    def test_action_picks_next_state(self):
        env = make_lr()
        mu = mu_for(env, L=0.3, R=0.3)
        np.testing.assert_allclose(env.transition_table(mu)[0, 0], [0, 1, 0])
        np.testing.assert_allclose(env.transition_table(mu)[0, 1], [0, 0, 1])


class TestToyLr:
    def test_symmetric_weights(self):
        env = make_toy_lr()
        mu = mu_for(env, L=0.4)
        assert env.reward_table(mu)[1, 0] == pytest.approx(-0.4)
        mu = mu_for(env, R=0.4)
        assert env.reward_table(mu)[2, 0] == pytest.approx(-0.4)


class TestRps:
    def test_paper_reward_rows(self):
        env = make_rps()
        mu = np.array([0.0, 0.5, 0.3, 0.2])
        assert env.reward_table(mu)[2, 0] == pytest.approx(4 * 0.5 - 2 * 0.2)  # at P
        mu = np.array([0.6, 0.3, 0.1, 0.0])
        assert env.reward_table(mu)[3, 0] == pytest.approx(6 * 0.1 - 3 * 0.3)  # at S
        mu = np.array([0.0, 0.0, 0.4, 0.6])
        assert env.reward_table(mu)[1, 2] == pytest.approx(2 * 0.6 - 1 * 0.4)  # at R

    def test_start_state_rewardless(self):
        env = make_rps()
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = rng.dirichlet(np.ones(4))
            for a in range(3):
                assert env.reward_table(mu)[0, a] == 0.0


class TestSis:
    def test_infection_probability(self):
        env = make_sis()
        mu = np.array([0.5, 0.5])
        np.testing.assert_allclose(env.transition_table(mu)[0, 0], [0.595, 0.405])

    def test_distancing_never_infects(self):
        env = make_sis()
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = rng.dirichlet(np.ones(2))
            np.testing.assert_allclose(env.transition_table(mu)[0, 1], [1.0, 0.0])

    def test_recovery_independent_of_action(self):
        env = make_sis()
        mu = np.array([0.2, 0.8])
        for a in range(2):
            np.testing.assert_allclose(env.transition_table(mu)[1, a], [0.3, 0.7])

    def test_infected_distancing_reward(self):
        env = make_sis()
        assert env.reward_table(np.array([0.5, 0.5]))[1, 1] == pytest.approx(-1.5)

    def test_initial_infected_share(self):
        env = make_sis()
        assert env.horizon == 50
        np.testing.assert_allclose(env.initial_dist, [0.4, 0.6])

    def test_transition_depends_on_mu_only_through_infected_share(self):
        env = make_sis()
        a = env.transition_table(np.array([0.7, 0.3]))
        b = env.transition_table(np.array([0.7, 0.3]))
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("make", [make_lr, make_toy_lr, make_rps, make_sis])
class TestDynamicsInvariants:
    def test_random_probes_are_distributions(self, make):
        make().validate_dynamics()

    def test_mu_independent_diracs_where_expected(self, make):
        env = make()
        if env.name == "sis":
            pytest.skip("sis kernel is mean-field dependent")
        rng = np.random.default_rng(2)
        base = env.transition_table(rng.dirichlet(np.ones(env.num_states)))
        other = env.transition_table(rng.dirichlet(np.ones(env.num_states)))
        np.testing.assert_array_equal(base, other)
        assert np.all(np.isin(base, (0.0, 1.0)))


def dense_coefs(env):
    """The game's coefficient arrays, with an absent (constant) one as zeros."""
    S, A = env.num_states, env.num_actions
    k_coef, r_coef = env.transition_mu_coef, env.reward_mu_coef
    return (
        np.zeros((S, A, S, S)) if k_coef is None else k_coef,
        np.zeros((S, A, S)) if r_coef is None else r_coef,
    )


def per_pair_tables(env, mu):
    """Kernel and rewards built one (s, a) at a time from the affine formula."""
    S, A = env.num_states, env.num_actions
    k_coef, r_coef = dense_coefs(env)
    kernel, rewards = np.empty((S, A, S)), np.empty((S, A))
    for s in range(S):
        for a in range(A):
            kernel[s, a] = env.transition_base[s, a] + k_coef[s, a] @ mu
            rewards[s, a] = env.reward_base[s, a] + r_coef[s, a] @ mu
    return kernel, rewards


class TestAffineTables:
    """The vectorized tables of an affine game against its affine formula
    evaluated one (s, a) at a time, as per-(s, a) callables would."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(1, 6),
        num_actions=st.integers(1, 3),
        mu_reward=st.booleans(),
        mu_transition=st.booleans(),
    )
    def test_tables_match_callables(
        self, seed, num_states, num_actions, mu_reward, mu_transition
    ):
        rng = np.random.default_rng(seed)
        env = random_affine_env(
            rng, 2, num_states, num_actions, mu_reward, mu_transition
        )
        mu = rng.dirichlet(np.ones(num_states))
        kernel = env.transition_table(mu)
        want_kernel, want_rewards = per_pair_tables(env, mu)
        np.testing.assert_array_equal(kernel, want_kernel)
        rewards = env.reward_table(mu)
        np.testing.assert_allclose(rewards, want_rewards, rtol=0.0, atol=1e-12)
        assert rewards.shape == (num_states, num_actions)
        assert np.all(kernel >= 0.0)
        np.testing.assert_allclose(kernel.sum(axis=-1), 1.0, rtol=0.0, atol=SIMPLEX_ATOL)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(1, 12),
        num_actions=st.integers(1, 4),
        num_rows=st.integers(0, 6),
        mu_reward=st.booleans(),
        mu_transition=st.booleans(),
    )
    def test_stacked_rows_match_single_tables(
        self, seed, num_states, num_actions, num_rows, mu_reward, mu_transition
    ):
        # A stack is one matrix product, a single table a product per (s, a):
        # the same S + 1 terms summed in another order.  Each order is off
        # by at most S ulps of the summed magnitudes, so the two differ by
        # at most 2 (S + 1) of them (observed: up to 4 at S = 12).
        rng = np.random.default_rng(seed)
        env = random_affine_env(
            rng, 2, num_states, num_actions, mu_reward, mu_transition
        )
        mu = rng.dirichlet(np.ones(num_states), size=num_rows)
        kernels, rewards = env.transition_table(mu), env.reward_table(mu)
        assert kernels.shape == (num_rows, num_states, num_actions, num_states)
        assert rewards.shape == (num_rows, num_states, num_actions)
        k_coef, r_coef = dense_coefs(env)
        for i in range(num_rows):
            for got, want, base, coef in (
                (kernels[i], env.transition_table(mu[i]), env.transition_base, k_coef),
                (rewards[i], env.reward_table(mu[i]), env.reward_base, r_coef),
            ):
                scale = np.abs(base) + np.abs(coef) @ mu[i]
                bound = 2 * (num_states + 1) * np.spacing(scale)
                assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("make", [make_lr, make_rps, make_sis])
    def test_constant_tables_are_the_read_only_base(self, make):
        # lr and rps have constant kernels, sis a mu-free reward: no
        # coefficient is stored, and the table is the base itself.
        env = make()
        mu = np.random.default_rng(3).dirichlet(np.ones(env.num_states), size=5)
        for coef, base, table in (
            (env.transition_mu_coef, env.transition_base, env.transition_table),
            (env.reward_mu_coef, env.reward_base, env.reward_table),
        ):
            if coef is not None:
                continue
            for got in (table(mu[0]), *table(mu)):
                np.testing.assert_array_equal(got, base)
                assert not got.flags.writeable
        assert (env.transition_mu_coef is None) == (env.name != "sis")
        assert (env.reward_mu_coef is None) == (env.name == "sis")

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(2, 6),
        num_actions=st.integers(1, 3),
        mu_transition=st.booleans(),
        data=st.data(),
    )
    def test_validation_is_exact_at_the_vertices(
        self, seed, num_states, num_actions, mu_transition, data
    ):
        env = random_affine_env(
            np.random.default_rng(seed), 2, num_states, num_actions,
            mu_transition=mu_transition,
        )
        env.validate_dynamics()
        # Push one entry of the vertex kernel at e_j to -2 SIMPLEX_ATOL and
        # give the mass to another entry of its row: the rows still sum to 1,
        # and the kernel is invalid only near the flow e_j.
        s, a, j = (data.draw(st.integers(0, n - 1)) for n in (num_states, num_actions, num_states))
        nxt, other = data.draw(st.permutations(range(num_states)))[:2]
        coef = dense_coefs(env)[0].copy()
        shift = env.transition_base[s, a, nxt] + coef[s, a, nxt, j]
        shift += 2 * SIMPLEX_ATOL
        coef[s, a, nxt, j] -= shift
        coef[s, a, other, j] += shift
        with pytest.raises(ValueError, match="negative mass"):
            replace(env, transition_mu_coef=coef).validate_dynamics()

    def test_pickled_copy_builds_the_same_tables(self):
        # The kernel coefficient of random_affine_env comes as a transposed
        # view; stored in that layout, its tables differed in the last bit
        # from those of a pickled (C-contiguous) copy of the same game.
        rng = np.random.default_rng(0)
        env = random_affine_env(rng, 50, 5, 4)
        copy = pickle.loads(pickle.dumps(env))
        for mu in (rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5), size=50)):
            np.testing.assert_array_equal(copy.transition_table(mu), env.transition_table(mu))
            np.testing.assert_array_equal(copy.reward_table(mu), env.reward_table(mu))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(1, 12),
        num_actions=st.integers(1, 4),
        num_agents=st.integers(1, 100),
    )
    def test_step_rows_match_the_tables(self, seed, num_states, num_actions, num_agents):
        # Few agents take the per-pair rows, many the full tables: both draw
        # from the same rows of transition_table / reward_table, bit for bit.
        rng = np.random.default_rng(seed)
        env = random_affine_env(rng, 2, num_states, num_actions)
        mu = rng.dirichlet(np.ones(num_states))
        codes = rng.integers(num_states, size=num_agents)
        actions = rng.integers(num_actions, size=num_agents)
        nxt, rewards = env.step_codes(np.random.default_rng(seed), 0, codes, actions, mu)
        want = sample_rows(np.random.default_rng(seed), env.transition_table(mu)[codes, actions])
        np.testing.assert_array_equal(nxt, want)
        np.testing.assert_array_equal(rewards, env.reward_table(mu)[codes, actions])


class TestCustomEnv:
    def test_json_round_trip(self, tmp_path):
        doc = {
            "name": "mini_sis",
            "horizon": 3,
            "num_states": 2,
            "num_actions": 2,
            "initial_dist": [0.5, 0.5],
            "reward": {"base": [[0.0, -0.5], [-1.0, -1.5]]},
            "transition": {
                "base": [
                    [[1.0, 0.0], [1.0, 0.0]],
                    [[0.3, 0.7], [0.3, 0.7]],
                ],
                "mu_coef": [
                    [[[0.0, -0.81], [0.0, 0.81]], [[0.0, 0.0], [0.0, 0.0]]],
                    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                ],
            },
        }
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        env = load_custom_env(str(path))
        assert env.horizon == 3
        np.testing.assert_allclose(
            env.transition_table(np.array([0.5, 0.5]))[0, 0], [0.595, 0.405]
        )

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"horizon": 2}))
        with pytest.raises(ConfigError):
            load_custom_env(str(path))

    @pytest.mark.parametrize("game", sorted(BAD_CUSTOM_GAMES))
    def test_bad_game_is_a_config_error(self, tmp_path, game):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(BAD_CUSTOM_GAMES[game]))
        with pytest.raises(ConfigError):
            load_custom_env(str(path))

    @pytest.mark.parametrize("horizon", [0, 2.5, True, np.float64(2.0)])
    def test_horizon_is_an_integer_of_at_least_one(self, horizon):
        # 2.5 used to be accepted here and fail later in the solver.
        with pytest.raises(ConfigError, match="horizon"):
            EnvironmentSpec(
                "one", horizon, initial_dist=[1.0], reward_base=[[0.0]], transition_base=[[[1.0]]]
            )

    def test_size_mismatch(self, tmp_path):
        doc = {
            "name": "bad",
            "horizon": 2,
            "num_states": 3,
            "num_actions": 2,
            "initial_dist": [1.0, 0.0],
            "reward": {"base": [[0.0, 0.0], [0.0, 0.0]]},
            "transition": {
                "base": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]
            },
        }
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_custom_env(str(path))


def test_affine_env_rejects_bad_shapes():
    with pytest.raises(Exception):
        EnvironmentSpec(
            "broken",
            horizon=2,
            initial_dist=[1.0, 0.0],
            reward_base=np.zeros((2, 2)),
            transition_base=np.zeros((2, 2, 3)),
        )


# Table builds above the size gate run split across threads.  The games below
# pass it: a (50, 5, 50, 50) kernel coefficient of 5 MB, and a (200, 14, 200)
# reward coefficient of 4.5 MB whose stacks split into two column blocks.


@functools.cache
def large_kernel_game():
    env = random_affine_env(np.random.default_rng(21), 3, 50, 5)
    assert env.transition_mu_coef.nbytes > base.PARALLEL_MIN_BYTES
    return env


@pytest.fixture(scope="module")
def large_reward_game():
    rng = np.random.default_rng(22)
    S, A = 200, 14
    env = EnvironmentSpec(
        "large_reward",
        horizon=3,
        initial_dist=rng.dirichlet(np.ones(S)),
        reward_base=rng.normal(size=(S, A)),
        transition_base=rng.dirichlet(np.ones(S), size=(S, A)),
        reward_mu_coef=rng.normal(size=(S, A, S)),
    )
    assert env.reward_mu_coef.nbytes > base.PARALLEL_MIN_BYTES
    assert S * A >= 2 * base.STACK_BLOCK_COLUMNS
    return env


@pytest.fixture
def table_threads():
    """Set the table threads of this process; restored after the test."""
    saved = base._threads
    yield base._set_table_threads
    base._set_table_threads(saved)


def parent_table(table_base, coef, mu, pair_rows):
    """A table as the unsplit build writes it, one expression per case."""
    if mu.ndim == 1:
        return table_base + (coef.reshape(-1, pair_rows, len(mu)) @ mu).reshape(table_base.shape)
    out = (mu @ coef.reshape(-1, mu.shape[-1]).T).reshape(mu.shape[:-1] + table_base.shape)
    out += table_base
    return out


class TestSplitTables:
    @pytest.mark.parametrize("threads", [None, 2, 3])
    @pytest.mark.parametrize("rows", [None, 1, 2, 19])
    def test_large_tables_equal_the_unsplit_products(
        self, large_reward_game, table_threads, threads, rows
    ):
        # None: as many threads as the process has CPUs (one under taskset -c 0).
        table_threads(threads)
        rng = np.random.default_rng(rows)
        for env in (large_kernel_game(), large_reward_game):
            S = env.num_states
            mu = rng.dirichlet(np.ones(S)) if rows is None else rng.dirichlet(np.ones(S), size=rows)
            for got, table_base, coef, pair_rows in (
                (env.transition_table(mu), env.transition_base, env.transition_mu_coef, S),
                (env.reward_table(mu), env.reward_base, env.reward_mu_coef, 1),
            ):
                if coef is not None:
                    np.testing.assert_array_equal(got, parent_table(table_base, coef, mu, pair_rows))

    @pytest.mark.parametrize("threads", [None, 2, 4])
    def test_large_step_rows_equal_the_unsplit_products(self, table_threads, threads):
        # 100 distinct pairs of the 320 take the per-pair path, and their
        # (100, 80, 80) coefficient rows pass the gate too.
        table_threads(threads)
        rng = np.random.default_rng(5)
        env = random_affine_env(rng, 2, 80, 4)
        mu = rng.dirichlet(np.ones(env.num_states))
        flat = rng.choice(env.num_states * env.num_actions, size=100, replace=False)
        codes, actions = np.divmod(np.repeat(flat, 2), env.num_actions)
        assert env.transition_mu_coef[codes, actions].nbytes / 2 > base.PARALLEL_MIN_BYTES
        nxt, rewards = env.step_codes(np.random.default_rng(6), 0, codes, actions, mu)
        kernel = parent_table(env.transition_base, env.transition_mu_coef, mu, env.num_states)
        rows = kernel[codes, actions]
        np.testing.assert_array_equal(nxt, sample_rows(np.random.default_rng(6), rows))
        np.testing.assert_array_equal(
            rewards,
            parent_table(env.reward_base, env.reward_mu_coef, mu, 1)[codes, actions],
        )

    @pytest.mark.parametrize("threads", [None, 2, 3])
    @pytest.mark.parametrize(
        "make", [large_kernel_game, make_toy_lr, make_lr, make_rps, make_sis],
        ids=["large_kernel", "toy_lr", "lr", "rps", "sis"],
    )
    def test_forward_pass_equals_the_allocating_loop(self, table_threads, threads, make):
        # The forward pass builds every kernel into one buffer and weights it
        # in place; it must equal the loop that allocates both at each step.
        # None: as many threads as the process has CPUs, so under taskset -c 0
        # the large game's kernels take the unsplit branch.
        table_threads(threads)
        env = make()
        rng = np.random.default_rng(8)
        pi = Policy(rng.dirichlet(np.ones(env.num_actions), size=(env.horizon, env.num_states)))
        p = pi.per_time_state
        want = np.empty((env.horizon, env.num_states))
        want[0] = env.initial_dist
        for t in range(env.horizon - 1):
            flow = p[t][:, :, None] * env.transition_table(want[t])
            want[t + 1] = np.einsum("s,san->n", want[t], flow)
        got = dp.induced_mean_field(env, pi).per_time
        np.testing.assert_array_equal(got, MeanField(want).per_time)
        buf = np.empty(env.transition_base.shape)
        for mu in want:
            assert env.transition_table(mu, out=buf) is buf
            np.testing.assert_array_equal(buf, env.transition_table(mu))
            if env.transition_mu_coef is not None:
                unsplit = parent_table(env.transition_base, env.transition_mu_coef, mu, env.num_states)
                np.testing.assert_array_equal(buf, unsplit)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_states=st.integers(1, 8),
        num_actions=st.integers(1, 3),
        rows=st.sampled_from([None, 0, 1, 3]),
        threads=st.integers(2, 5),
    )
    def test_split_and_one_block_builds_agree(
        self, seed, num_states, num_actions, rows, threads
    ):
        # With the gate at 0 every build splits, into more blocks than pairs
        # where the game is small.
        rng = np.random.default_rng(seed)
        env = random_affine_env(rng, 2, num_states, num_actions)
        size = None if rows is None else (rows,)
        mu = rng.dirichlet(np.ones(num_states), size=size)
        saved = base._threads, base.PARALLEL_MIN_BYTES
        try:
            base._set_table_threads(1)
            want = env.transition_table(mu), env.reward_table(mu)
            base._set_table_threads(threads)
            base.PARALLEL_MIN_BYTES = 0
            got = env.transition_table(mu), env.reward_table(mu)
        finally:
            base._set_table_threads(saved[0])
            base.PARALLEL_MIN_BYTES = saved[1]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_nothing_starts_before_the_first_large_build(self):
        # Importing the package and its command line and building small
        # tables start no pool, import no executor and ask for no CPU count.
        code = """
import sys
import numpy as np
import mfgsolve
import mfgsolve.cli
from mfgsolve.envs import base
for make in (mfgsolve.make_sis, mfgsolve.make_rps):
    env = make()
    env.transition_table(env.initial_dist)
    env.reward_table(np.tile(env.initial_dist, (3, 1)))
assert base._pool is None and base._threads is None
assert "concurrent.futures" not in sys.modules
"""
        src = os.path.dirname(os.path.dirname(mfgsolve.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=env)

    def test_forked_worker_builds_large_tables(self, table_threads):
        # The parent's pool threads do not survive a fork: a worker that
        # inherited the executor would queue its blocks for them forever.
        table_threads(2)
        env = large_kernel_game()
        mu = np.random.default_rng(7).dirichlet(np.ones(env.num_states))
        want = env.transition_table(mu)
        assert base._pool is not None
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=context) as pool:
            got = pool.submit(build_in_time, mu, 60.0).result(timeout=120)
        assert got is not None, "the forked worker's table build hung"
        np.testing.assert_array_equal(got, want)


def build_in_time(mu, seconds):
    """The large kernel game's table at ``mu``, built on a daemon thread, or
    None if it has not returned within ``seconds``; a hung build leaves this
    process free to answer.  A forked worker inherits the game itself."""
    box = []
    env = large_kernel_game()
    worker = threading.Thread(target=lambda: box.append(env.transition_table(mu)), daemon=True)
    worker.start()
    worker.join(seconds)
    return box[0] if box else None
