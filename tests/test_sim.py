import numpy as np
import pytest

from mfgsolve import dp
from mfgsolve.core import MeanField, Policy, meanfield_distance
from mfgsolve.envs import make_affine_env, make_lr, make_sis
from mfgsolve.sim import (
    FixedActionPolicy,
    ParticleConfig,
    evaluate_policy_stochastic,
    frozen_mdp,
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
        env = make_affine_env(
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
        batched = frozen_mdp(taxi, mu).episode_returns(
            np.random.default_rng(21), pi, episodes
        )
        rng = np.random.default_rng(22)
        looped = np.zeros(episodes)
        for e in range(episodes):
            code = np.array([taxi.encode(taxi.initial_state())])
            for t in range(taxi.horizon):
                action = rng.choice(taxi.num_actions, size=1, p=pi.probs)
                code, reward = taxi.step_codes(rng, t, code, action, mu.per_time[t])
                looped[e] += reward[0]
        se = np.hypot(batched.std(ddof=1), looped.std(ddof=1)) / np.sqrt(episodes)
        assert looped.mean() > 0.0
        assert abs(batched.mean() - looped.mean()) <= 4.0 * se
