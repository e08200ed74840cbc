import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_affine_env
from mfgsolve.core import SIMPLEX_ATOL
from mfgsolve.envs import (
    EnvironmentSpec,
    load_custom_env,
    make_affine_env,
    make_lr,
    make_rps,
    make_sis,
    make_toy_lr,
)
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
            assert env.reward(1, a, mu) == pytest.approx(-0.4)

    def test_right_reward_doubled(self):
        env = make_lr()
        mu = mu_for(env, R=0.4)
        for a in range(2):
            assert env.reward(2, a, mu) == pytest.approx(-0.8)

    def test_action_picks_next_state(self):
        env = make_lr()
        mu = mu_for(env, L=0.3, R=0.3)
        np.testing.assert_allclose(env.transition(0, 0, mu), [0, 1, 0])
        np.testing.assert_allclose(env.transition(0, 1, mu), [0, 0, 1])


class TestToyLr:
    def test_symmetric_weights(self):
        env = make_toy_lr()
        mu = mu_for(env, L=0.4)
        assert env.reward(1, 0, mu) == pytest.approx(-0.4)
        mu = mu_for(env, R=0.4)
        assert env.reward(2, 0, mu) == pytest.approx(-0.4)


class TestRps:
    def test_paper_reward_rows(self):
        env = make_rps()
        mu = np.array([0.0, 0.5, 0.3, 0.2])
        assert env.reward(2, 0, mu) == pytest.approx(4 * 0.5 - 2 * 0.2)  # at P
        mu = np.array([0.6, 0.3, 0.1, 0.0])
        assert env.reward(3, 0, mu) == pytest.approx(6 * 0.1 - 3 * 0.3)  # at S
        mu = np.array([0.0, 0.0, 0.4, 0.6])
        assert env.reward(1, 2, mu) == pytest.approx(2 * 0.6 - 1 * 0.4)  # at R

    def test_start_state_rewardless(self):
        env = make_rps()
        rng = np.random.default_rng(0)
        for _ in range(20):
            mu = rng.dirichlet(np.ones(4))
            for a in range(3):
                assert env.reward(0, a, mu) == 0.0


class TestSis:
    def test_infection_probability(self):
        env = make_sis()
        mu = np.array([0.5, 0.5])
        np.testing.assert_allclose(env.transition(0, 0, mu), [0.595, 0.405])

    def test_distancing_never_infects(self):
        env = make_sis()
        rng = np.random.default_rng(1)
        for _ in range(20):
            mu = rng.dirichlet(np.ones(2))
            np.testing.assert_allclose(env.transition(0, 1, mu), [1.0, 0.0])

    def test_recovery_independent_of_action(self):
        env = make_sis()
        mu = np.array([0.2, 0.8])
        for a in range(2):
            np.testing.assert_allclose(env.transition(1, a, mu), [0.3, 0.7])

    def test_infected_distancing_reward(self):
        env = make_sis()
        assert env.reward(1, 1, np.array([0.5, 0.5])) == pytest.approx(-1.5)

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
        make().validate_dynamics(num_probes=1000, seed=0)

    def test_mu_independent_diracs_where_expected(self, make):
        env = make()
        if env.name == "sis":
            pytest.skip("sis kernel is mean-field dependent")
        rng = np.random.default_rng(2)
        base = env.transition_table(rng.dirichlet(np.ones(env.num_states)))
        other = env.transition_table(rng.dirichlet(np.ones(env.num_states)))
        np.testing.assert_array_equal(base, other)
        assert np.all(np.isin(base, (0.0, 1.0)))


class TestAffineTables:
    """The vectorized tables of an affine game against its per-(s, a)
    callables, and against the loop an ``EnvironmentSpec`` built from those
    callables alone falls back to."""

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
        callables_only = EnvironmentSpec(
            name="callables",
            horizon=env.horizon,
            num_states=num_states,
            num_actions=num_actions,
            initial_dist=env.initial_dist,
            transition=env.transition,
            reward=env.reward,
        )
        mu = rng.dirichlet(np.ones(num_states))
        kernel = env.transition_table(mu)
        stacked = np.array(
            [[env.transition(s, a, mu) for a in range(num_actions)]
             for s in range(num_states)]
        )
        np.testing.assert_array_equal(kernel, stacked)
        np.testing.assert_array_equal(kernel, callables_only.transition_table(mu))
        rewards = env.reward_table(mu)
        np.testing.assert_allclose(
            rewards, callables_only.reward_table(mu), rtol=0.0, atol=1e-12
        )
        assert rewards.shape == (num_states, num_actions)
        assert np.all(kernel >= 0.0)
        np.testing.assert_allclose(kernel.sum(axis=-1), 1.0, rtol=0.0, atol=SIMPLEX_ATOL)


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
            env.transition(0, 0, np.array([0.5, 0.5])), [0.595, 0.405]
        )

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"horizon": 2}))
        with pytest.raises(ConfigError):
            load_custom_env(str(path))

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
        make_affine_env(
            "broken",
            horizon=2,
            initial_dist=[1.0, 0.0],
            reward_base=np.zeros((2, 2)),
            transition_base=np.zeros((2, 2, 3)),
        )
