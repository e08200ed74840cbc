import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_affine_env, random_env, random_mean_field, random_policy
from mfgsolve import dp
from mfgsolve.core import MeanField, Policy
from mfgsolve.envs import EnvironmentSpec, make_lr, make_sis, make_toy_lr
from mfgsolve.errors import CapacityError, DimensionError
from mfgsolve.exploitability import exploitability_exact


@pytest.fixture
def toy_lr():
    return make_toy_lr()


@pytest.fixture
def toy_mu():
    return MeanField(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]))


def uniform(env):
    return Policy.uniform(env.horizon, env.num_states, env.num_actions)


def single_action_env(rng):
    return random_env(rng, horizon=4, num_states=3, num_actions=1)


class TestOptimalQ:
    def test_toy_lr_hand_computed(self, toy_lr, toy_mu):
        q = dp.optimal_q(toy_lr, toy_mu)
        assert q[0, 0, 0] == pytest.approx(-0.5)
        assert q[0, 0, 1] == pytest.approx(-0.5)

    def test_terminal_slice_equals_rewards(self):
        rng = np.random.default_rng(0)
        env = random_env(rng, 5, 3, 2)
        mu = random_mean_field(rng, env)
        q = dp.optimal_q(env, mu)
        np.testing.assert_allclose(q[-1], env.reward_table(mu.at(env.horizon - 1)))

    def test_single_action_equals_policy_value(self):
        rng = np.random.default_rng(1)
        env = single_action_env(rng)
        mu = random_mean_field(rng, env)
        qstar = dp.optimal_q(env, mu)
        qpi = dp.policy_q(env, mu, uniform(env))
        np.testing.assert_allclose(qstar, qpi, atol=1e-12)

    def test_shape_mismatch(self, toy_lr):
        with pytest.raises(DimensionError):
            dp.optimal_q(toy_lr, MeanField(np.full((2, 2), 0.5)))

    def test_capacity_guard(self):
        rng = np.random.default_rng(2)
        env = random_env(rng, 10**6, 2, 2)
        with pytest.raises(CapacityError):
            dp.optimal_q(env, MeanField(np.full((10**6, 2), 0.5)))


class TestSoftQ:
    def test_terminal_slice_for_any_eta(self, toy_lr, toy_mu):
        for eta in (1e-3, 1.0, 100.0):
            q = dp.soft_q(toy_lr, toy_mu, eta, uniform(toy_lr))
            np.testing.assert_allclose(q[-1], toy_lr.reward_table(toy_mu.at(1)))

    def test_single_action_collapses_to_optimal(self):
        rng = np.random.default_rng(3)
        env = single_action_env(rng)
        mu = random_mean_field(rng, env)
        qstar = dp.optimal_q(env, mu)
        for eta in (1e-3, 1.0, 50.0):
            qs = dp.soft_q(env, mu, eta, uniform(env))
            np.testing.assert_allclose(qs, qstar, atol=1e-12)

    def test_toy_lr_low_temperature_gap(self, toy_lr, toy_mu):
        # Terminal rows are action-independent in toy LR, so the weighted
        # smooth maximum equals the hard maximum exactly there; the general
        # eta*log|A| bound still applies.
        qs = dp.soft_q(toy_lr, toy_mu, 0.1, uniform(toy_lr))
        qstar = dp.optimal_q(toy_lr, toy_mu)
        assert np.abs(qs[0, 0] - qstar[0, 0]).max() <= 0.08
        assert np.all(qs <= qstar + 1e-12)

    def test_strictly_below_with_real_action_gap(self):
        env = make_sis()
        mu = dp.induced_mean_field(env, uniform(env))
        qs = dp.soft_q(env, mu, 0.1, uniform(env))
        qstar = dp.optimal_q(env, mu)
        assert np.all(qs[:-1] < qstar[:-1])

    def test_monotone_decreasing_in_eta(self):
        rng = np.random.default_rng(4)
        env = random_env(rng, 4, 3, 3)
        mu = random_mean_field(rng, env)
        prior = random_policy(rng, env)
        prev = None
        for eta in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            qs = dp.soft_q(env, mu, eta, prior)
            if prev is not None:
                assert np.all(qs <= prev + 1e-9)
            prev = qs

    def test_rejects_nonpositive_prior(self, toy_lr, toy_mu):
        dirac = np.zeros((2, 3, 2))
        dirac[..., 0] = 1.0
        with pytest.raises(ValueError):
            dp.soft_q(toy_lr, toy_mu, 1.0, Policy(dirac))

    def test_tiny_eta_no_nan(self, toy_lr, toy_mu):
        qs = dp.soft_q(toy_lr, toy_mu, 1e-12, uniform(toy_lr))
        assert np.all(np.isfinite(qs))


class TestPolicyQ:
    def test_greedy_of_optimal_recovers_optimal(self):
        rng = np.random.default_rng(5)
        env = random_env(rng, 5, 4, 3)
        mu = random_mean_field(rng, env)
        qstar = dp.optimal_q(env, mu)
        pi = dp.greedy_policy(qstar)
        qpi = dp.policy_q(env, mu, pi)
        np.testing.assert_allclose(qpi, qstar, atol=1e-10)

    def test_toy_lr_uniform(self, toy_lr, toy_mu):
        qpi = dp.policy_q(toy_lr, toy_mu, uniform(toy_lr))
        assert qpi[0, 0, 0] == pytest.approx(-0.5)

    def test_sandwich_below_optimal(self):
        rng = np.random.default_rng(6)
        for make in (make_lr, make_toy_lr, make_sis):
            env = make()
            mu = random_mean_field(rng, env)
            qstar = dp.optimal_q(env, mu)
            for _ in range(100):
                qpi = dp.policy_q(env, mu, random_policy(rng, env))
                assert np.all(qpi <= qstar + 1e-9)


class TestGreedyPolicy:
    def test_unique_argmax(self):
        q = np.array([[[1.0, 2.0, 0.5]]])
        np.testing.assert_allclose(
            dp.greedy_policy(q).per_time_state[0, 0], [0, 1, 0]
        )

    def test_tie_first(self):
        q = np.array([[[2.0, 2.0, 0.5]]])
        np.testing.assert_allclose(
            dp.greedy_policy(q).per_time_state[0, 0], [1, 0, 0]
        )


ENTRY_POINTS = {
    "greedy": dp.greedy_policy,
    "boltzmann": lambda q: dp.boltzmann_policy(q, 0.5, Policy.uniform(1, 1, 2)),
}


class TestCheckedEntryPoints:
    """The (T, S, A) entry points of ``policy_rows`` refuse malformed tables
    from outside."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_refuses_a_table_that_is_not_3d(self, name):
        with pytest.raises(DimensionError, match="3-d"):
            ENTRY_POINTS[name](np.zeros((1, 2)))

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_values(self, name, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ENTRY_POINTS[name](np.array([[[0.0, bad]]]))


class TestBoltzmannPolicy:
    def test_equal_row_returns_prior(self):
        rng = np.random.default_rng(7)
        prior = Policy(rng.dirichlet(np.ones(3), size=(2, 2)))
        q = np.full((2, 2, 3), 1.7)
        out = dp.boltzmann_policy(q, 0.5, prior)
        np.testing.assert_allclose(out.per_time_state, prior.per_time_state, atol=1e-12)

    def test_logistic_value(self):
        q = np.array([[[0.0, -1.0]]])
        out = dp.boltzmann_policy(q, 1.0, Policy.uniform(1, 1, 2))
        np.testing.assert_allclose(out.per_time_state[0, 0], [0.7311, 0.2689], atol=1e-4)

    def test_huge_eta_returns_prior(self):
        rng = np.random.default_rng(8)
        prior = Policy(rng.dirichlet(np.ones(4), size=(2, 3)))
        q = rng.normal(size=(2, 3, 4))
        out = dp.boltzmann_policy(q, 1e9, prior)
        assert np.abs(out.per_time_state - prior.per_time_state).max() < 1e-6

    def test_low_eta_matches_greedy_on_gapped_rows(self):
        rng = np.random.default_rng(9)
        q_vals = rng.normal(size=(3, 4, 3))
        q_vals[..., 0] += 0.5  # enforce gaps >= 0.1 toward a unique argmax
        q = q_vals
        greedy = dp.greedy_policy(q).per_time_state
        soft = dp.boltzmann_policy(q, 1e-4, Policy.uniform(3, 4, 3)).per_time_state
        gaps = np.sort(q_vals, axis=-1)
        mask = (gaps[..., -1] - gaps[..., -2]) >= 0.1
        dist = 0.5 * np.abs(soft - greedy).sum(axis=-1)
        assert dist[mask].max() < 1e-6

    def test_extreme_eta_no_nan(self):
        q = np.array([[[500.0, -500.0]]])
        out = dp.boltzmann_policy(q, 1e-9, Policy.uniform(1, 1, 2))
        assert np.all(np.isfinite(out.per_time_state))
        np.testing.assert_allclose(out.per_time_state[0, 0], [1.0, 0.0])


class TestInducedMeanField:
    def test_toy_lr_uniform_split(self, toy_lr):
        mu = dp.induced_mean_field(toy_lr, uniform(toy_lr))
        np.testing.assert_allclose(mu.per_time, [[1, 0, 0], [0, 0.5, 0.5]])

    def test_lr_dirac_left(self):
        env = make_lr()
        dirac = np.zeros((2, 3, 2))
        dirac[..., 0] = 1.0
        mu = dp.induced_mean_field(env, Policy(dirac))
        np.testing.assert_allclose(mu.per_time[1], [0, 1, 0])

    def test_sis_infection_recursion(self):
        env = make_sis()
        rng = np.random.default_rng(10)
        pi = random_policy(rng, env)
        mu = dp.induced_mean_field(env, pi).per_time
        for t in range(env.horizon - 1):
            expected = mu[t, 1] * 0.7 + mu[t, 0] * pi.per_time_state[t, 0, 0] * 0.81 * mu[t, 1]
            assert mu[t + 1, 1] == pytest.approx(expected, abs=1e-12)

    def test_bit_reproducible(self):
        env = make_sis()
        rng = np.random.default_rng(11)
        pi = random_policy(rng, env)
        a = dp.induced_mean_field(env, pi).per_time
        b = dp.induced_mean_field(env, pi).per_time
        np.testing.assert_array_equal(a, b)


class TestObjectives:
    def test_toy_lr_equilibrium_value(self, toy_lr):
        mu = dp.induced_mean_field(toy_lr, uniform(toy_lr))
        assert dp.objective_value(toy_lr, mu, uniform(toy_lr)) == pytest.approx(-0.5)

    def test_zero_reward_env(self):
        rng = np.random.default_rng(12)
        env = EnvironmentSpec(
            "zero",
            horizon=3,
            initial_dist=[0.5, 0.5],
            reward_base=np.zeros((2, 2)),
            transition_base=rng.dirichlet(np.ones(2), size=(2, 2)),
        )
        mu = random_mean_field(rng, env)
        assert dp.objective_value(env, mu, random_policy(rng, env)) == 0.0

    def test_single_path_sums_rewards(self):
        env = EnvironmentSpec(
            "chain",
            horizon=5,
            initial_dist=[1.0],
            reward_base=np.array([[0.7]]),
            transition_base=np.ones((1, 1, 1)),
        )
        mu = MeanField(np.ones((5, 1)))
        assert dp.objective_value(env, mu, Policy.uniform(5, 1, 1)) == pytest.approx(3.5)

    def test_regularized_equals_plain_at_prior(self):
        rng = np.random.default_rng(13)
        env = random_env(rng, 4, 3, 2)
        mu = random_mean_field(rng, env)
        prior = random_policy(rng, env)
        plain = dp.objective_value(env, mu, prior)
        reg = dp.regularized_objective(env, mu, prior, 2.0, prior)
        assert reg == pytest.approx(plain, abs=1e-12)

    def test_tiny_eta_negligible_penalty(self):
        rng = np.random.default_rng(14)
        env = random_env(rng, 4, 3, 2)
        mu = random_mean_field(rng, env)
        prior = uniform(env)
        pi = Policy(0.9 * random_policy(rng, env).per_time_state + 0.1 * prior.per_time_state)
        plain = dp.objective_value(env, mu, pi)
        reg = dp.regularized_objective(env, mu, pi, 1e-12, prior)
        assert abs(reg - plain) < 1e-6

    def test_toy_lr_dirac_first_step_penalty(self, toy_lr, toy_mu):
        # Dirac-L at the first decision, prior elsewhere: exactly one visited
        # state pays a KL of log 2.
        pi_arr = np.full((2, 3, 2), 0.5)
        pi_arr[0, 0] = [1.0, 0.0]
        pi = Policy(pi_arr)
        plain = dp.objective_value(toy_lr, toy_mu, pi)
        reg = dp.regularized_objective(toy_lr, toy_mu, pi, 1.0, uniform(toy_lr))
        assert reg == pytest.approx(plain - np.log(2.0), abs=1e-12)


class TestContractivityThreshold:
    def test_lr_constants(self):
        assert dp.contractivity_threshold(1.0, 1.0, 2, 0.5, 0.5) == 1.0

    def test_constant_map(self):
        assert dp.contractivity_threshold(0.0, 1.0, 3, 0.5, 0.1) == 0.0

    def test_prior_ratio_quadruples(self):
        base = dp.contractivity_threshold(1.0, 1.0, 2, 0.5, 0.5)
        skew = dp.contractivity_threshold(1.0, 1.0, 2, 0.8, 0.4)
        assert skew == pytest.approx(4.0 * base)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            dp.contractivity_threshold(1.0, 1.0, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            dp.contractivity_threshold(1.0, 1.0, 2, 0.5, 0.0)
        with pytest.raises(ValueError):
            dp.contractivity_threshold(-1.0, 1.0, 2, 0.5, 0.5)


class TestSoftmaxOptimality:
    def test_beats_perturbed_policies(self):
        # The softmax-with-prior of the regularized backward induction is the
        # maximizer of the penalized objective (its first-order conditions
        # admit the closed form); random competitors never beat it.
        rng = np.random.default_rng(15)
        for _ in range(5):
            env = random_env(
                rng,
                horizon=int(rng.integers(2, 5)),
                num_states=int(rng.integers(2, 4)),
                num_actions=int(rng.integers(2, 4)),
            )
            mu = random_mean_field(rng, env)
            prior = random_policy(rng, env)
            eta = float(rng.uniform(0.05, 2.0))
            star = dp.boltzmann_policy(dp.soft_q(env, mu, eta, prior), eta, prior)
            best = dp.regularized_objective(env, mu, star, eta, prior)
            for _ in range(50):
                other = random_policy(rng, env)
                val = dp.regularized_objective(env, mu, other, eta, prior)
                assert val <= best + 1e-9


# The three backward loops and the forward KL loop as written out before
# they shared one recursion, kept as the reference the shared one must
# reproduce bit for bit (the objective up to rounding).


def loop_optimal_q(tabs, T, S, A):
    q = np.empty((T, S, A))
    q[T - 1] = tabs.rewards[T - 1]
    for t in range(T - 2, -1, -1):
        v_next = q[t + 1].max(axis=1)
        q[t] = tabs.rewards[t] + tabs.kernels[t] @ v_next
    return q


def loop_soft_q(tabs, T, S, A, eta, prior):
    qp = prior.per_time_state
    q = np.empty((T, S, A))
    q[T - 1] = tabs.rewards[T - 1]
    for t in range(T - 2, -1, -1):
        m = q[t + 1].max(axis=1, keepdims=True)
        v_next = (
            m[:, 0]
            + eta * np.log(np.sum(qp[t + 1] * np.exp((q[t + 1] - m) / eta), axis=1))
        )
        q[t] = tabs.rewards[t] + tabs.kernels[t] @ v_next
    return q


def loop_policy_q(tabs, T, S, A, pi):
    q = np.empty((T, S, A))
    q[T - 1] = tabs.rewards[T - 1]
    for t in range(T - 2, -1, -1):
        v_next = np.sum(pi.per_time_state[t + 1] * q[t + 1], axis=1)
        q[t] = tabs.rewards[t] + tabs.kernels[t] @ v_next
    return q


def loop_regularized_objective(env, tabs, pi, eta, prior):
    p = pi.per_time_state
    qp = prior.per_time_state
    kl_rows = np.where(p > 0.0, p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(qp)), 0.0)
    rho = env.initial_dist.copy()
    total = 0.0
    for t in range(env.horizon):
        gain = np.sum(p[t] * tabs.rewards[t], axis=1)
        total += float(rho @ (gain - eta * kl_rows[t].sum(axis=1)))
        if t + 1 < env.horizon:
            step = p[t][:, :, None] * tabs.kernels[t]
            rho = np.einsum("s,san->n", rho, step)
    return total


games = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "horizon": st.integers(1, 6),
        "num_states": st.integers(1, 5),
        "num_actions": st.integers(1, 4),
        "mu_reward": st.booleans(),
        "mu_transition": st.booleans(),
    }
)
temperatures = st.floats(1e-3, 1e2)


def draw_game(game):
    """An affine game with a random flow, policy and positive prior."""
    rng = np.random.default_rng(game["seed"])
    env = random_affine_env(
        rng,
        game["horizon"],
        game["num_states"],
        game["num_actions"],
        game["mu_reward"],
        game["mu_transition"],
    )
    return env, random_mean_field(rng, env), random_policy(rng, env), random_policy(rng, env)


class TestFlowTables:
    def test_one_table_call_each(self, monkeypatch):
        # The whole flow goes through the table primitive as one stack.
        rng = np.random.default_rng(17)
        env = random_affine_env(rng, 6, 4, 3)
        mu = random_mean_field(rng, env)
        calls = []
        for name in ("transition_table", "reward_table"):
            original = getattr(EnvironmentSpec, name)

            def counted(self, mu_arg, _name=name, _original=original):
                calls.append((_name, mu_arg.shape))
                return _original(self, mu_arg)

            monkeypatch.setattr(EnvironmentSpec, name, counted)
        tabs = dp.flow_tables(env, mu)
        assert sorted(calls) == [("reward_table", (6, 4)), ("transition_table", (5, 4))]
        assert tabs.rewards.shape == (6, 4, 3)
        assert tabs.kernels.shape == (5, 4, 3, 4)

    def test_horizon_one_has_no_kernels(self):
        env = random_affine_env(np.random.default_rng(18), 1, 3, 2)
        tabs = dp.flow_tables(env, dp.induced_mean_field(env, uniform(env)))
        assert tabs.kernels.shape == (0, 3, 2, 3)
        np.testing.assert_allclose(
            dp.backward_sweep(env, tabs, hard=True)[0][0], tabs.rewards[0]
        )


class TestOneBackwardRecursion:
    @settings(max_examples=150, deadline=None)
    @given(game=games, eta=temperatures)
    def test_matches_the_written_out_loops(self, game, eta):
        env, mu, pi, prior = draw_game(game)
        tabs = dp.flow_tables(env, mu)
        shape = (env.horizon, env.num_states, env.num_actions)
        np.testing.assert_array_equal(
            dp.optimal_q(env, mu), loop_optimal_q(tabs, *shape)
        )
        np.testing.assert_array_equal(
            dp.soft_q(env, mu, eta, prior),
            loop_soft_q(tabs, *shape, eta, prior),
        )
        np.testing.assert_array_equal(
            dp.policy_q(env, mu, pi), loop_policy_q(tabs, *shape, pi)
        )

    @settings(max_examples=100, deadline=None)
    @given(game=games, eta=temperatures)
    def test_regularized_objective_matches_the_forward_loop(self, game, eta):
        env, mu, pi, prior = draw_game(game)
        want = loop_regularized_objective(env, dp.flow_tables(env, mu), pi, eta, prior)
        got = dp.regularized_objective(env, mu, pi, eta, prior)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestStackedColumns:
    """Every column of a multi-column sweep is the one-column recursion's
    result bit for bit, in any combination of columns."""

    @settings(max_examples=150, deadline=None)
    @given(game=games, eta=temperatures)
    @example(  # constant kernel and constant reward
        game={"seed": 3, "horizon": 5, "num_states": 4, "num_actions": 3,
              "mu_reward": False, "mu_transition": False},
        eta=0.2,
    )
    @example(  # horizon 1: no kernel, every column is the reward table
        game={"seed": 4, "horizon": 1, "num_states": 3, "num_actions": 2,
              "mu_reward": True, "mu_transition": True},
        eta=1.0,
    )
    def test_columns_equal_the_one_column_sweeps(self, game, eta):
        env, mu, pi, prior = draw_game(game)
        tabs = dp.flow_tables(env, mu)
        hard = dp.optimal_q(env, mu)
        weighted = dp.policy_q(env, mu, pi)
        smooth = dp.soft_q(env, mu, eta, prior)
        stacks = [
            ((hard, weighted, smooth), dict(hard=True, pi=pi, soft=(eta, prior))),
            ((hard, weighted), dict(hard=True, pi=pi)),
            ((hard, smooth), dict(hard=True, soft=(eta, prior))),
            ((weighted, smooth), dict(pi=pi, soft=(eta, prior))),
        ]
        for want, columns in stacks:
            got = dp.backward_sweep(env, tabs, **columns)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


class TestDpProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_actions=st.integers(1, 5),
        eta=st.floats(1e-12, 1e-6) | st.floats(1e6, 1e12),
    )
    def test_softmax_rows_stay_on_the_simplex(self, seed, num_actions, eta):
        rng = np.random.default_rng(seed)
        q = 500.0 * rng.normal(size=(3, 4, num_actions))
        prior = rng.dirichlet(np.ones(num_actions), size=(3, 4))
        rows = dp.policy_rows(q, eta, np.log(prior))
        assert np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(game=games, eta=temperatures)
    def test_soft_q_within_entropy_bound_of_optimal_q(self, game, eta):
        env, mu, _, _ = draw_game(game)
        qstar = dp.optimal_q(env, mu)
        qs = dp.soft_q(env, mu, eta, uniform(env))
        slack = 1e-9 * (1.0 + np.abs(qstar))
        assert np.all(qs <= qstar + slack)
        bound = eta * env.horizon * np.log(env.num_actions)
        assert np.all(qs >= qstar - bound - slack)

    @settings(max_examples=100, deadline=None)
    @given(game=games, etas=st.lists(temperatures, min_size=2, max_size=4, unique=True))
    def test_soft_q_decreases_in_eta(self, game, etas):
        env, mu, _, prior = draw_game(game)
        prev = None
        for eta in sorted(etas):
            qs = dp.soft_q(env, mu, eta, prior)
            if prev is not None:
                assert np.all(qs <= prev + 1e-9 * (1.0 + np.abs(prev)))
            prev = qs

    @settings(max_examples=100, deadline=None)
    @given(game=games)
    def test_exploitability_is_nonnegative(self, game):
        env, _, pi, _ = draw_game(game)
        assert exploitability_exact(env, pi).value >= -1e-12
