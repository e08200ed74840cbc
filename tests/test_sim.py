import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_affine_env, random_policy
from mfgsolve import dp
from mfgsolve.core import MeanField, Policy, meanfield_distance
from mfgsolve.envs import EnvironmentSpec, make_lr, make_sis
from mfgsolve.errors import DimensionError
from mfgsolve.rl import DqnHyperparams, dqn_train
from mfgsolve.sim import (
    FixedActionPolicy,
    ParticleConfig,
    evaluate_policy_stochastic,
    simulate_mean_field,
)


def dirac_left_policy(env):
    arr = np.zeros((env.horizon, env.num_states, env.num_actions))
    arr[..., 0] = 1.0
    return Policy(arr)


class TestSimulateMeanField:
    def test_deterministic_dynamics_match_exact(self):
        env = make_lr()
        pi = dirac_left_policy(env)
        exact = dp.induced_mean_field(env, pi)
        for k, m in ((1, 7), (3, 20)):
            emp = simulate_mean_field(env, pi, ParticleConfig(k, m, seed=0))
            np.testing.assert_array_equal(emp.per_time, exact.per_time)

    def test_single_particle_rows_one_hot(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        emp = simulate_mean_field(env, pi, ParticleConfig(1, 1, seed=3))
        assert np.all(np.isin(emp.per_time, (0.0, 1.0)))
        np.testing.assert_allclose(emp.per_time.sum(axis=1), 1.0)

    def test_sis_consistency(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        exact = dp.induced_mean_field(env, pi)
        dists = [
            meanfield_distance(
                simulate_mean_field(env, pi, ParticleConfig(5, 1000, seed=s)), exact
            )
            for s in range(10)
        ]
        assert np.median(dists) < 0.05

    def test_error_decreases_with_particles(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        exact = dp.induced_mean_field(env, pi)
        medians = []
        for m in (10, 100, 1000, 10000):
            dists = [
                meanfield_distance(
                    simulate_mean_field(env, pi, ParticleConfig(5, m, seed=s)), exact
                )
                for s in range(10)
            ]
            medians.append(np.median(dists))
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_bitwise_reproducible(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        cfg = ParticleConfig(4, 300, seed=11)
        a = simulate_mean_field(env, pi, cfg)
        b = simulate_mean_field(env, pi, cfg)
        np.testing.assert_array_equal(a.per_time, b.per_time)
        assert a.num_meanfields == 4 and a.num_particles == 300 and a.seed == 11

    def test_rows_are_counting_measures(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        cfg = ParticleConfig(3, 40, seed=5)
        emp = simulate_mean_field(env, pi, cfg)
        scaled = emp.per_time * cfg.num_meanfields * cfg.num_particles
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)
        np.testing.assert_allclose(emp.per_time.sum(axis=1), 1.0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParticleConfig(0, 10, 0)


class TestEvaluatePolicyStochastic:
    def test_deterministic_single_path(self):
        env = EnvironmentSpec(
            "chain",
            horizon=6,
            initial_dist=[1.0],
            reward_base=np.array([[0.25]]),
            transition_base=np.ones((1, 1, 1)),
        )
        mu = MeanField(np.ones((6, 1)))
        mean, se = evaluate_policy_stochastic(env, mu, Policy.uniform(6, 1, 1), 50, 0)
        assert mean == pytest.approx(1.5)
        assert se == 0.0

    def test_rps_matches_objective_within_band(self):
        from mfgsolve.envs import make_rps

        env = make_rps()
        pi = Policy.uniform(env.horizon, env.num_states, env.num_actions)
        mu = dp.induced_mean_field(env, pi)
        exact = dp.objective_value(env, mu, pi)
        mean, se = evaluate_policy_stochastic(env, mu, pi, 2000, 7)
        assert abs(mean - exact) <= 3.0 * se

    def test_single_episode_zero_stderr(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        mu = dp.induced_mean_field(env, pi)
        mean, se = evaluate_policy_stochastic(env, mu, pi, 1, 9)
        assert np.isfinite(mean)
        assert se == 0.0

    def test_needs_positive_episodes(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        mu = dp.induced_mean_field(env, pi)
        with pytest.raises(ValueError):
            evaluate_policy_stochastic(env, mu, pi, 0, 0)


class TestSampledTaxiPaths:
    """Particle flows and rollouts of the taxi game, stepped as arrays."""

    @pytest.fixture(scope="class")
    def taxi(self):
        from mfgsolve.envs import make_taxi

        return make_taxi(horizon=20)

    def test_flow_rows_are_counting_measures(self, taxi):
        cfg = ParticleConfig(3, 40, seed=5)
        emp = simulate_mean_field(taxi, FixedActionPolicy(taxi.num_actions), cfg)
        assert emp.per_time.shape == (taxi.horizon, taxi.mf_size)
        scaled = emp.per_time * cfg.num_meanfields * cfg.num_particles
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)
        np.testing.assert_allclose(emp.per_time.sum(axis=1), 1.0, atol=1e-12)
        start = taxi.map.tile_index[taxi.map.start]
        assert emp.per_time[0, start] == 1.0
        assert emp.per_time[-1, start] < 1.0  # the uniform policy leaves S

    def test_flow_bitwise_reproducible(self, taxi):
        cfg = ParticleConfig(2, 30, seed=8)
        pi = FixedActionPolicy(taxi.num_actions)
        a = simulate_mean_field(taxi, pi, cfg)
        b = simulate_mean_field(taxi, pi, cfg)
        np.testing.assert_array_equal(a.per_time, b.per_time)
        c = simulate_mean_field(taxi, pi, ParticleConfig(2, 30, seed=9))
        assert not np.array_equal(a.per_time, c.per_time)

    def test_always_wait_earns_nothing(self, taxi):
        # A waiting taxi stays on S, where no passenger ever waits.
        mu = MeanField(np.full((taxi.horizon, taxi.mf_size), 1.0 / taxi.mf_size))
        wait = FixedActionPolicy(taxi.num_actions, [1.0, 0.0, 0.0, 0.0, 0.0])
        mean, se = evaluate_policy_stochastic(taxi, mu, wait, 50, 3)
        assert mean == 0.0 and se == 0.0

    def test_batched_returns_match_per_episode_loop(self, taxi):
        mu = simulate_mean_field(
            taxi, FixedActionPolicy(taxi.num_actions), ParticleConfig(1, 100, seed=1)
        )
        pi = FixedActionPolicy(taxi.num_actions, [0.4, 0.15, 0.15, 0.15, 0.15])
        episodes = 400
        batched, batched_se = evaluate_policy_stochastic(taxi, mu, pi, episodes, 21)
        rng = np.random.default_rng(22)
        looped = np.zeros(episodes)
        for e in range(episodes):
            code = np.array([taxi.encode(taxi.initial_state())])
            for t in range(taxi.horizon):
                action = rng.choice(taxi.num_actions, size=1, p=pi.probs)
                code, reward = taxi.step_codes(rng, t, code, action, mu.per_time[t])
                looped[e] += reward[0]
        se = np.hypot(batched_se, looped.std(ddof=1) / np.sqrt(episodes))
        assert looped.mean() > 0.0
        assert abs(batched - looped.mean()) <= 4.0 * se


class TestPolicyShape:
    """A tabular Policy must match the game's (T, S, A) in both entry points."""

    def test_wrong_shape_rejected(self):
        env = make_sis()
        wrong = Policy.uniform(57, 5, 2)
        mu = dp.induced_mean_field(env, Policy.uniform(env.horizon, 2, 2))
        with pytest.raises(DimensionError, match="policy shape"):
            simulate_mean_field(env, wrong, ParticleConfig(1, 10, seed=0))
        with pytest.raises(DimensionError, match="policy shape"):
            evaluate_policy_stochastic(env, mu, wrong, 10, 0)


# The tabular particle flow and frozen-flow MDP as written before every game
# shared one sampling interface, kept as the reference that interface must
# reproduce draw for draw.


def former_sample_rows(rng, probs):
    cum = np.cumsum(probs, axis=1)
    u = rng.random((probs.shape[0], 1)) * cum[:, -1:]
    return (u >= cum).sum(axis=1)


def former_particle_flow(env, pi, num_particles, rng):
    counts = np.zeros((env.horizon, env.num_states))
    states = former_sample_rows(rng, np.tile(env.initial_dist, (num_particles, 1)))
    for t in range(env.horizon):
        g = np.bincount(states, minlength=env.num_states) / num_particles
        counts[t] = g
        actions = former_sample_rows(rng, pi.per_time_state[t][states])
        kernel = env.transition_table(g)
        states = former_sample_rows(rng, kernel[states, actions])
    return counts


class FormerFrozenMdp:
    """Single-agent MDP with the tables of a frozen flow; the single agent
    draws with one ``rng.choice`` each, whole batches with the row sampler."""

    def __init__(self, env, mu):
        self.env = env
        self.horizon = env.horizon
        self.num_actions = env.num_actions
        self.mf_size = env.num_states
        self.obs_dim = env.num_states + 1
        self._rewards = np.stack([env.reward_table(mu.at(t)) for t in range(env.horizon)])
        self._kernels = np.stack(
            [env.transition_table(mu.at(t)) for t in range(env.horizon)]
        )

    def sample_initial(self, rng):
        return int(rng.choice(self.env.num_states, p=self.env.initial_dist))

    def step(self, rng, t, state, action):
        reward = float(self._rewards[t, state, action])
        nxt = int(rng.choice(self.env.num_states, p=self._kernels[t, state, action]))
        return reward, nxt

    def observe(self, t, state):
        obs = np.zeros(self.obs_dim)
        obs[state] = 1.0
        obs[-1] = float(t)
        return obs

    def episode_returns(self, rng, pi, episodes):
        states = former_sample_rows(rng, np.tile(self.env.initial_dist, (episodes, 1)))
        returns = np.zeros(episodes)
        for t in range(self.horizon):
            actions = former_sample_rows(rng, pi.per_time_state[t][states])
            returns += self._rewards[t, states, actions]
            states = former_sample_rows(rng, self._kernels[t, states, actions])
        return returns

    # The single agent behind the sampling interface at n = 1, which is how
    # ``dqn_train`` steps a game.  The frozen tables ignore ``mu_t``.

    def initial_codes(self, rng, n):
        assert n == 1
        return np.array([self.sample_initial(rng)])

    def step_codes(self, rng, t, codes, actions, mu_t):
        reward, nxt = self.step(rng, t, int(codes[0]), int(actions[0]))
        return np.array([nxt]), np.array([reward])

    def observe_codes(self, t, codes):
        return self.observe(t, int(codes[0]))[None]


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


def draw_game(game):
    """An affine game and a random policy."""
    rng = np.random.default_rng(game["seed"])
    env = random_affine_env(
        rng,
        game["horizon"],
        game["num_states"],
        game["num_actions"],
        game["mu_reward"],
        game["mu_transition"],
    )
    return env, random_policy(rng, env)


class TestFormerTabularPaths:
    """The shared sampling interface against the former tabular code."""

    @settings(max_examples=80, deadline=None)
    @given(game=games, seed=st.integers(0, 2**32 - 1))
    def test_particle_flow(self, game, seed):
        env, pi = draw_game(game)
        cfg = ParticleConfig(3, 25, seed=seed)
        streams = np.random.SeedSequence(seed).spawn(cfg.num_meanfields)
        total = sum(
            former_particle_flow(env, pi, cfg.num_particles, np.random.default_rng(s))
            for s in streams
        )
        want = MeanField(total / cfg.num_meanfields).per_time
        np.testing.assert_array_equal(simulate_mean_field(env, pi, cfg).per_time, want)

    @settings(max_examples=80, deadline=None)
    @given(game=games, seed=st.integers(0, 2**32 - 1))
    def test_rollout(self, game, seed):
        env, pi = draw_game(game)
        mu = dp.induced_mean_field(env, pi)
        episodes = 40
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        returns = FormerFrozenMdp(env, mu).episode_returns(rng, pi, episodes)
        want = (float(returns.mean()), float(returns.std(ddof=1) / np.sqrt(episodes)))
        assert evaluate_policy_stochastic(env, mu, pi, episodes, seed) == want

    @settings(max_examples=25, deadline=None)
    @given(game=games, seed=st.integers(0, 2**32 - 1))
    def test_dqn_training(self, game, seed):
        env, pi = draw_game(game)
        mu = dp.induced_mean_field(env, pi)
        hp = DqnHyperparams(
            epochs=4, batch_size=4, hidden_width=8, target_update_every=3, replay_capacity=16
        )
        got = dqn_train(env, mu, hp, seed).params
        want = dqn_train(FormerFrozenMdp(env, mu), mu, hp, seed).params
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


class TestParticleFlowsTendToExactFlows:
    """On games whose kernel depends on the flow, the particle flow stays
    within a high-probability bound of the exact flow that shrinks like
    1/sqrt(particles).

    In ``random_affine_env`` a kernel row is ``0.5 base + 0.5 sum_j mu_j m_j``
    with distributions ``m_j``, so two flows ``g`` and ``mu`` move each row by
    at most ``0.5 TV(g, mu)``, and the one-step map ``Phi`` (act, then step)
    by at most ``1.5 TV(g, mu)``.  Given a replicate's particles at time t,
    its next empirical measure ``g'`` has mean ``Phi(g)`` and is a function
    of M independent (action, next state) draws, each moving ``TV(g',
    Phi(g))`` by at most 1/M: that TV has mean at most ``0.5 sqrt(S / M)``
    and exceeds it by ``eps`` with probability at most ``exp(-2 M eps^2)``
    (McDiarmid).  The same holds for the initial draw.  So with probability
    at least ``1 - K T p`` every one of the K replicates' T draws errs by at
    most ``d = 0.5 sqrt(S / M) + sqrt(log(1 / p) / (2 M))``, and then
    ``TV(g_t, mu_t) <= d (1 + 1.5 + ... + 1.5^t)`` at every t, which bounds
    the sup-TV gap too; the replicate average is no farther than its
    farthest replicate.  With p = 1e-9 a failure is below 1e-7 per example.
    """

    @settings(max_examples=40, deadline=None)
    @given(game=games, seed=st.integers(0, 2**32 - 1))
    def test_tv_gap_within_bound_at_every_time(self, game, seed):
        env, pi = draw_game(dict(game, mu_transition=True))
        cfg = ParticleConfig(2, 100_000, seed=seed)
        M, S, T = cfg.num_particles, env.num_states, env.horizon
        d = 0.5 * np.sqrt(S / M) + np.sqrt(np.log(1e9) / (2 * M))
        bounds = d * (1.5 ** np.arange(1, T + 1) - 1.0) / 0.5
        exact = dp.induced_mean_field(env, pi).per_time
        gaps = 0.5 * np.abs(simulate_mean_field(env, pi, cfg).per_time - exact).sum(axis=1)
        assert np.all(gaps <= bounds)
