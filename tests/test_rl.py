import pickle

import numpy as np
import pytest
from scipy import stats

from mfgsolve import dp
from mfgsolve.core import Policy, flow_distance
from mfgsolve.envs import EnvironmentSpec, make_rps, make_sis
from mfgsolve.errors import ConfigError, TrainingDivergedError
from mfgsolve.rl import (
    Adam,
    DqnHyperparams,
    DuelingQNetwork,
    NetworkPolicy,
    ReplayBuffer,
    boltzmann_dqn_iteration,
    clip_gradients,
    dqn_train,
    epsilon_at,
    network_q_table,
)
from mfgsolve.rl.network import PARAM_NAMES
from mfgsolve.exploitability import exploitability_exact
from mfgsolve.sim import ParticleConfig, simulate_mean_field
from mfgsolve.solvers import SolverConfig


class TestNetwork:
    def test_dueling_shift_invariance(self):
        rng = np.random.default_rng(0)
        net = DuelingQNetwork(5, 3, hidden_width=16, seed=1)
        obs = rng.normal(size=(12, 5))
        q0 = net.forward(obs)
        net.params["adv_b2"][...] += 3.7
        q1 = net.forward(obs)
        assert np.abs(q1 - q0).max() < 1e-6

    def test_forward_is_the_dueling_formula(self):
        rng = np.random.default_rng(13)
        net = DuelingQNetwork(5, 4, hidden_width=16, seed=3)
        obs = rng.normal(size=(9, 5))
        p = net.params
        h = np.maximum(obs @ p["shared_w"] + p["shared_b"], 0.0)
        hv = np.maximum(h @ p["value_w1"] + p["value_b1"], 0.0)
        ha = np.maximum(h @ p["adv_w1"] + p["adv_b1"], 0.0)
        value = hv @ p["value_w2"] + p["value_b2"]
        adv = ha @ p["adv_w2"] + p["adv_b2"]
        want = value + adv - adv.mean(axis=1, keepdims=True)
        assert net.dtype == np.float64
        np.testing.assert_allclose(net.forward(obs), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_params_are_views_of_one_vector(self, name):
        # The finite-difference checks perturb parameters through
        # ``params[name].reshape(-1)``; that only reaches the network if the
        # views share the flat storage the optimizer updates.
        rng = np.random.default_rng(14)
        net = DuelingQNetwork(4, 3, hidden_width=8, seed=5)
        assert net.flat.ndim == 1
        assert net.flat.size == sum(p.size for p in net.params.values())
        obs = rng.normal(size=(6, 4))
        q0, flat0 = net.forward(obs), net.flat.copy()
        view = net.params[name].reshape(-1)
        view += np.linspace(0.1, 1.0, view.size)
        assert np.count_nonzero(net.flat != flat0) == view.size
        assert not np.array_equal(net.forward(obs), q0)
        with pytest.raises(TypeError):  # a rebound name would leave the vector
            net.params[name] = net.params[name] + 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_pickle_round_trip_keeps_views(self, dtype):
        # Parallel sweeps send trained networks back from worker processes.
        rng = np.random.default_rng(16)
        net = DuelingQNetwork(4, 3, hidden_width=8, seed=7).astype(dtype)
        obs = rng.normal(size=(6, 4))
        back = pickle.loads(pickle.dumps(net))
        assert back.dtype == dtype
        np.testing.assert_array_equal(back.flat, net.flat)
        np.testing.assert_array_equal(back.forward(obs), net.forward(obs))
        assert list(back.params) == list(PARAM_NAMES)
        for name, p in back.params.items():
            assert np.shares_memory(p, back.flat), name
            assert not np.shares_memory(p, net.flat), name
        back.flat += 1.0
        assert not np.array_equal(back.forward(obs), net.forward(obs))

    def test_gradient_written_into_out(self):
        rng = np.random.default_rng(15)
        net = DuelingQNetwork(4, 3, hidden_width=8, seed=6)
        obs = rng.normal(size=(16, 4))
        actions = rng.integers(3, size=16)
        targets = rng.normal(size=16)
        _, fresh = net.loss_and_grad(obs, actions, targets)
        out = np.full_like(net.flat, np.nan)
        _, grads = net.loss_and_grad(obs, actions, targets, out=out)
        assert list(grads) == list(PARAM_NAMES)
        np.testing.assert_array_equal(out, np.concatenate([g.ravel() for g in fresh.values()]))
        for name, g in grads.items():
            assert np.shares_memory(g, out) and g.shape == net.params[name].shape

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        net = DuelingQNetwork(4, 3, hidden_width=8, seed=2)
        obs = rng.normal(size=(16, 4))
        actions = rng.integers(3, size=16)
        targets = rng.normal(size=16)
        _, grads = net.loss_and_grad(obs, actions, targets)
        h = 1e-6
        for name, g in grads.items():
            flat = net.params[name].reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = net.loss_and_grad(obs, actions, targets)
                flat[i] = orig - h
                lm, _ = net.loss_and_grad(obs, actions, targets)
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(gf[i]), 1e-6)
                assert abs(fd - gf[i]) / denom < 1e-4, name

    def test_float32_gradients_match_float64(self):
        # The same parameters in both dtypes: the float32 backward pass
        # agrees with the float64 one to float32 precision.
        rng = np.random.default_rng(7)
        net64 = DuelingQNetwork(10, 4, hidden_width=64, seed=8)
        net32 = net64.astype(np.float32)
        obs = rng.normal(size=(128, 10))
        actions = rng.integers(4, size=128)
        targets = rng.normal(size=128)
        loss64, g64 = net64.loss_and_grad(obs, actions, targets)
        loss32, g32 = net32.loss_and_grad(obs, actions, targets)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in g64.values()))
        for name, g in g64.items():
            assert g32[name].dtype == np.float32, name
            assert np.abs(g32[name] - g).max() <= 1e-5 * norm, name


class TestFloat32Network:
    """A float32 network stays float32 whatever it is fed; a silent upcast
    would cancel the speed-up without failing any accuracy test."""

    @pytest.fixture()
    def net(self):
        return DuelingQNetwork(6, 3, hidden_width=16, seed=9).astype(np.float32)

    def test_float64_inputs_do_not_upcast(self, net):
        rng = np.random.default_rng(10)
        obs = rng.normal(size=(8, 6))
        targets = rng.normal(size=8)
        assert net.forward(obs).dtype == np.float32
        flat_grads = np.empty_like(net.flat)
        _, grads = net.loss_and_grad(obs, rng.integers(3, size=8), targets, out=flat_grads)
        assert all(g.dtype == np.float32 for g in grads.values())
        Adam(lr=0.01).step(net.flat, flat_grads)
        assert all(p.dtype == np.float32 for p in net.params.values())

    def test_dqn_train_returns_float32(self):
        env = make_rps()
        mu = dp.induced_mean_field(env, Policy.uniform(env.horizon, 4, 3))
        hp = DqnHyperparams(epochs=20, batch_size=8, hidden_width=16)
        net = dqn_train(env, mu, hp, seed=0)
        assert all(p.dtype == np.float32 for p in net.params.values())


class TestAdam:
    def test_quadratic_converges(self):
        x = np.array([3.0, -2.0, 0.5])
        target = np.array([1.0, 1.0, 1.0])
        opt = Adam(lr=0.01)
        for _ in range(10000):
            opt.step(x, 2.0 * (x - target))
        assert np.abs(x - target).max() < 1e-6

    def test_matches_bias_corrected_adam(self):
        # Kingma & Ba (2015), Algorithm 1, written out; the optimizer reorders
        # the moment updates, so the two agree to float64 rounding.
        rng = np.random.default_rng(12)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        x = rng.normal(size=300)
        ref, m, v = x.copy(), np.zeros_like(x), np.zeros_like(x)
        opt = Adam(lr, b1, b2, eps)
        for t in range(1, 51):
            g = rng.normal(size=x.size) * rng.uniform(0.01, 10.0)
            opt.step(x, g)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            ref -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        np.testing.assert_allclose(opt._m, m, rtol=1e-12)
        np.testing.assert_allclose(opt._v, v, rtol=1e-12)
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dtype, steps", [(np.float32, 2000), (np.float64, 12000)])
    def test_idle_moments_never_subnormal(self, dtype, steps):
        # A coordinate whose gradient stays 0 (a dead ReLU, an input that is
        # never on) decays its moments geometrically; left alone they sink
        # into subnormal floats, where every later step is slow.
        params = np.ones(6, dtype=dtype)
        opt = Adam(lr=0.01)
        opt.step(params, np.full_like(params, 1e-3))
        idle = np.zeros_like(params)
        for _ in range(steps):
            opt.step(params, idle)
        tiny = np.finfo(dtype).tiny
        for x in (opt._m, opt._v):
            assert np.all((x == 0.0) | (np.abs(x) >= tiny))
        assert params.dtype == dtype


class TestClipping:
    def test_norm_bounded(self):
        rng = np.random.default_rng(5)
        grads = rng.normal(size=1200) * 10
        norm = np.sqrt(grads @ grads)
        raw = clip_gradients(grads, 40.0)
        assert np.sqrt(grads @ grads) <= 40.0 + 1e-9
        assert raw == pytest.approx(norm, rel=1e-12)
        assert raw > 40.0

    def test_small_gradients_untouched(self):
        grads = np.array([0.1, 0.2])
        clip_gradients(grads, 40.0)
        np.testing.assert_array_equal(grads, [0.1, 0.2])


class TestEpsilonSchedule:
    def test_exactly_linear_then_constant(self):
        hp = DqnHyperparams()
        total = 1000
        ramp = 0.8 * total
        for step in (0, 100, 399, 700, 799):
            expected = 1.0 + (0.02 - 1.0) * step / ramp
            assert epsilon_at(step, total, hp) == pytest.approx(expected, abs=1e-12)
        for step in (800, 801, 999, 5000):
            assert epsilon_at(step, total, hp) == 0.02


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=4)
        for i in range(6):
            buf.add(0, i, i % 2, float(i), i + 1)
        assert len(buf) == 4
        stored = sorted(buf.data["code"].tolist())
        assert stored == [2, 3, 4, 5]

    def test_uniform_sampling_chi_square(self):
        buf = ReplayBuffer(capacity=64)
        for i in range(64):
            buf.add(0, i, 0, 0.0, 0)
        rng = np.random.default_rng(6)
        counts = np.zeros(64)
        draws = 64_000
        for _ in range(draws // 1000):
            _, codes, *_ = buf.sample(rng, 1000)
            counts += np.bincount(codes, minlength=64)
        expected = draws / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=63)


class TestTargetCache:
    """Each replay slot's target value is computed once per slot content and
    target network, and equals a fresh target forward."""

    def test_value_kept_until_overwrite_or_sync(self):
        class Recorder:
            """A game whose observation is (next code, t + 1) and a target
            network whose values are that row, recording its next codes."""

            calls = []

            def observe_codes(self, ts, codes):
                return np.stack([codes, ts], axis=1).astype(np.float64)

            def forward(self, obs):
                self.calls.append(obs[:, 0].tolist())
                return obs

        rec, buf = Recorder(), ReplayBuffer(capacity=4)
        for i in range(4):
            buf.add(i, i, 0, 0.0, 10 + i)
        got = buf.target_values(np.array([2, 0, 2]), rec, rec)
        np.testing.assert_array_equal(got, [12, 10, 12])
        assert rec.calls == [[10, 12]]  # one forward over the distinct new slots
        buf.target_values(np.array([0, 2, 0]), rec, rec)
        assert len(rec.calls) == 1
        buf.add(4, 4, 0, 0.0, 20)  # the capacity wraps onto slot 0
        np.testing.assert_array_equal(buf.target_values(np.array([0, 2]), rec, rec), [20, 12])
        assert rec.calls[1:] == [[20]]
        buf.data["target"] = np.nan  # what a target sync does
        buf.target_values(np.array([2, 0]), rec, rec)
        assert rec.calls[2:] == [[20, 12]]

    def test_cached_values_match_a_fresh_target_forward(self):
        from mfgsolve.envs import make_taxi

        taxi = make_taxi()
        rng = np.random.default_rng(8)
        net = DuelingQNetwork(taxi.obs_dim, taxi.num_actions, hidden_width=32, seed=4)
        net = net.astype(np.float32)
        buf = ReplayBuffer(capacity=200)
        for t, code in zip(rng.integers(taxi.horizon, size=200), taxi.initial_codes(rng, 200)):
            buf.add(t, 0, 0, 0.0, code)
        # Filled in batches of assorted sizes, whose BLAS rounding differs.
        for size in (1, 3, 37, 127, 200):
            cached = buf.target_values(rng.integers(200, size=size), net, taxi)
        assert cached.dtype == np.float32
        obs = taxi.observe_codes(buf.data["t"] + 1, buf.data["next_code"])
        fresh = net.forward(obs).max(axis=1)
        # float32 carries about 7 digits, and the dueling sum cancels terms
        # larger than its result: rtol 1e-5 allows a few ulps of those terms.
        np.testing.assert_allclose(buf.target_values(np.arange(200), net, taxi), fresh, rtol=1e-5)

    def test_target_network_sees_each_slot_once_per_sync(self, monkeypatch):
        env = make_rps()
        mu = dp.induced_mean_field(env, Policy.uniform(env.horizon, 4, 3))
        hp = DqnHyperparams(epochs=150, batch_size=32, replay_capacity=100,
                            target_update_every=100, hidden_width=8)
        rows = {}
        forward = DuelingQNetwork.forward

        def counting_forward(self, obs):
            rows[id(self)] = rows.get(id(self), 0) + len(obs)
            return forward(self, obs)

        monkeypatch.setattr(DuelingQNetwork, "forward", counting_forward)
        net = dqn_train(env, mu, hp, seed=0)
        target_rows = sum(n for key, n in rows.items() if key != id(net))
        added = hp.epochs * env.horizon
        # One row per draw would be (300 - 31) updates x 32 = 8608 rows.
        assert 0 < target_rows <= added + hp.replay_capacity * (added // hp.target_update_every)


class TestHyperparams:
    def test_paper_defaults(self):
        hp = DqnHyperparams()
        assert hp.replay_capacity == 10000
        assert hp.learning_rate == 0.0005
        assert hp.discount == 0.99
        assert hp.target_update_every == 500
        assert hp.grad_clip_norm == 40
        assert hp.batch_size == 128
        assert (hp.epsilon_start, hp.epsilon_end, hp.epsilon_end_fraction) == (1, 0.02, 0.8)
        assert hp.epochs == 1000
        assert hp.hidden_width == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            DqnHyperparams(learning_rate=0.0)
        with pytest.raises(ValueError):
            DqnHyperparams(epsilon_end=2.0)

    @pytest.mark.parametrize(
        "field", ["discount", "epsilon_start", "epsilon_end", "epsilon_end_fraction"]
    )
    def test_probabilities_and_discount_at_most_one(self, field):
        with pytest.raises(ValueError, match=f"{field} must not exceed"):
            DqnHyperparams(**{field: 1.5})
        DqnHyperparams(**{field: 1.0})  # e.g. an undiscounted finite horizon

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 2.5),
            ("batch_size", 32.0),
            ("learning_rate", float("nan")),
            ("discount", float("nan")),
            ("grad_clip_norm", "40"),
        ],
    )
    def test_counts_are_integers_and_reals_not_nan(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DqnHyperparams(**{field: value})


class TestModeGuard:
    def test_relent_tabular_still_works(self):
        from mfgsolve.solvers import boltzmann_iteration

        log = boltzmann_iteration(
            make_rps(), SolverConfig(max_iterations=3, mode="relent", eta=0.5)
        )
        assert len(log.records) == 3


class TestDqnTraining:
    def test_trivial_mdp_values_near_zero(self):
        env = EnvironmentSpec(
            "null",
            horizon=2,
            initial_dist=[1.0],
            reward_base=np.zeros((1, 1)),
            transition_base=np.ones((1, 1, 1)),
        )
        mu = dp.induced_mean_field(env, Policy.uniform(2, 1, 1))
        hp = DqnHyperparams(
            epochs=300, batch_size=16, hidden_width=32, target_update_every=50
        )
        net = dqn_train(env, mu, hp, seed=0)
        q = network_q_table(net, env)
        assert np.abs(q).max() < 0.05

    def test_rps_greedy_matches_exact_argmax(self):
        env = make_rps()
        pi = Policy.uniform(env.horizon, env.num_states, env.num_actions)
        mu = dp.induced_mean_field(env, pi)
        qstar = dp.optimal_q(env, mu)
        net = dqn_train(env, mu, DqnHyperparams(), seed=0)
        qnet = network_q_table(net, env)
        reachable = [(0, 0), (1, 1), (1, 2), (1, 3)]
        for t, s in reachable:
            best = qnet[t, s].argmax()
            assert qstar[t, s, best] >= qstar[t, s].max() - 1e-9

    def test_non_finite_last_update_raises(self, monkeypatch):
        # The loss check runs before each update, so only the parameter
        # check at the end sees a last update that went non-finite.
        env = make_rps()
        mu = dp.induced_mean_field(env, Policy.uniform(env.horizon, env.num_states, env.num_actions))
        hp = DqnHyperparams(epochs=3, batch_size=4, hidden_width=8, replay_capacity=16)
        updates = hp.epochs * env.horizon - hp.batch_size + 1
        step = Adam.step

        def poisoned_last_step(self, params, grads):
            step(self, params, grads)
            if self.step_count == updates:
                params[0] = np.nan

        monkeypatch.setattr(Adam, "step", poisoned_last_step)
        with pytest.raises(TrainingDivergedError, match="non-finite parameters"):
            dqn_train(env, mu, hp, seed=0)

    @pytest.mark.slow
    def test_sis_value_accuracy_across_seeds(self):
        env = make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        mu = dp.induced_mean_field(env, pi)
        qstar = dp.optimal_q(env, mu)
        hits = 0
        for seed in range(5):
            net = dqn_train(env, mu, DqnHyperparams(), seed=seed)
            qnet = network_q_table(net, env)
            mae = np.abs(qnet - qstar).mean()
            hits += mae < 0.2
        assert hits >= 3


class TestBoltzmannDqnIteration:
    def test_runs_and_logs_on_rps(self):
        env = make_rps()
        hp = DqnHyperparams(epochs=120, batch_size=32, hidden_width=32)
        log = boltzmann_dqn_iteration(
            env, SolverConfig(2, "boltzmann", 0.5), ParticleConfig(2, 200, 0), hp, seed=0
        )
        assert len(log.records) == 2
        assert all(np.isfinite(r.exploitability) for r in log.records)
        assert all(r.eta == 0.5 for r in log.records)

    def test_huge_eta_keeps_prior(self):
        env = make_rps()
        prior = Policy.uniform(env.horizon, env.num_states, env.num_actions)
        hp = DqnHyperparams(epochs=60, batch_size=32, hidden_width=32)
        log = boltzmann_dqn_iteration(
            env,
            SolverConfig(2, "boltzmann", 1e9, prior=prior),
            ParticleConfig(2, 500, 0),
            hp,
            seed=1,
        )
        from mfgsolve.core import policy_distance

        assert policy_distance(log.final_policy, prior) < 1e-6
        exact_flow = dp.induced_mean_field(env, prior)
        assert (
            0.5 * np.abs(log.final_meanfield.per_time - exact_flow.per_time).sum(axis=1).max()
            < 0.1
        )

    @pytest.mark.parametrize(
        "field", ["mode", "fp_average_policy", "fp_average_meanfield", "initial_mean_field"]
    )
    def test_invalid_inputs(self, field):
        # The config refuses a negative temperature; the loop refuses, before
        # any training, each field it cannot honour.
        env = make_rps()
        with pytest.raises(ConfigError, match="temperature"):
            SolverConfig(1, "boltzmann", -1.0)
        refused = {
            "mode": "relent",
            "fp_average_policy": True,
            "fp_average_meanfield": True,
            "initial_mean_field": dp.induced_mean_field(
                env, Policy.uniform(env.horizon, env.num_states, env.num_actions)
            ),
        }
        cfg = SolverConfig(**{"max_iterations": 1, "mode": "boltzmann", "eta": 0.5,
                              field: refused[field]})
        with pytest.raises(ConfigError, match="learned loop"):
            boltzmann_dqn_iteration(env, cfg, ParticleConfig(1, 10, 0))

    @pytest.mark.parametrize(
        "prior",
        [[0.5, 0.5], [[0.2] * 5], [0.0, 0.25, 0.25, 0.25, 0.25], [np.nan] * 5],
        ids=["short", "2d", "zero", "nan"],
    )
    def test_sampled_prior_must_be_a_positive_action_vector(self, monkeypatch, prior):
        # A sampled game's prior is one action distribution; any other is
        # refused where the loop resolves it, before the first training.
        from mfgsolve.envs import make_taxi
        from mfgsolve.rl import loop

        trainings = []
        monkeypatch.setattr(loop, "dqn_train", lambda *args, **kw: trainings.append(args))
        cfg = SolverConfig(1, "boltzmann", 0.1, prior=np.array(prior))
        with pytest.raises(ConfigError, match="prior"):
            boltzmann_dqn_iteration(make_taxi(), cfg, ParticleConfig(1, 10, 0))
        assert trainings == []


    def test_tabular_prior_must_be_a_game_policy(self, monkeypatch):
        from mfgsolve.rl import loop

        trainings = []
        monkeypatch.setattr(loop, "dqn_train", lambda *args, **kw: trainings.append(args))
        cfg = SolverConfig(1, "boltzmann", 0.5, prior=np.array([0.3, 0.3, 0.4]))
        with pytest.raises(ConfigError, match="prior"):
            boltzmann_dqn_iteration(make_rps(), cfg, ParticleConfig(1, 10, 0))
        assert trainings == []


def naive_learned_loop(env, eta, iterations, particles, hp, seed):
    """The learned loop on a tabular game written out from public calls:
    per iteration train on the current flow, take the network's softmax (or
    greedy) policy, measure it exactly and simulate its flow, with every seed
    drawn in the loop's ``SeedSequence`` spawn order."""

    def seed_of(ss):
        return int(ss.generate_state(1)[0])

    def particle_config(ss):
        return ParticleConfig(particles.num_meanfields, particles.num_particles, seed_of(ss))

    prior = Policy.uniform(env.horizon, env.num_states, env.num_actions)
    init_ss, *iter_ss = np.random.SeedSequence(seed).spawn(1 + iterations)
    mu = simulate_mean_field(env, prior, particle_config(init_ss))
    flows, series, pi = [mu.per_time], [], None
    for k in range(iterations):
        train_ss, sim_ss, _ = iter_ss[k].spawn(3)
        q = network_q_table(dqn_train(env, mu, hp, seed=seed_of(train_ss)), env)
        if eta > 0.0:
            pi = dp.boltzmann_policy(q, eta, prior)
        else:
            pi = dp.greedy_policy(q)
        series.append(exploitability_exact(env, pi).value)
        mu = simulate_mean_field(env, pi, particle_config(sim_ss))
        flows.append(mu.per_time)
    return series, pi, flows


class TestLearnedLoopMatchesNaiveLoop:
    """The learned loop draws its seeds in a fixed order; running it through
    the shared fixed-point skeleton must not move a single draw."""

    @pytest.mark.parametrize("eta", [0.5, 0.0])
    def test_bit_identical_on_rps(self, eta):
        env = make_rps()
        hp = DqnHyperparams(epochs=20, batch_size=8, hidden_width=8)
        particles = ParticleConfig(2, 50, 0)
        cfg = SolverConfig(3, "boltzmann", eta) if eta else SolverConfig(3)
        log = boltzmann_dqn_iteration(env, cfg, particles, hp, seed=4)
        series, pi, flows = naive_learned_loop(env, eta, 3, particles, hp, seed=4)
        np.testing.assert_array_equal(log.exploitabilities, series)
        np.testing.assert_array_equal(log.final_policy.per_time_state, pi.per_time_state)
        np.testing.assert_array_equal(log.final_meanfield.per_time, flows[-1])
        np.testing.assert_array_equal(np.array(log.meanfield_history), np.array(flows))
        for k, rec in enumerate(log.records):
            assert rec.mf_distance_prev == flow_distance(flows[k + 1], flows[k])
            assert rec.mf_distance_final == flow_distance(flows[k + 1], flows[-1])
            assert rec.std_error is None


class TestNetworkPolicies:
    def test_boltzmann_network_policy_rows(self):
        from mfgsolve.envs import make_taxi

        taxi = make_taxi()
        net = DuelingQNetwork(taxi.obs_dim, taxi.num_actions, hidden_width=16, seed=9)
        pol = NetworkPolicy(net, taxi, eta=0.3)
        codes = np.full(4, taxi.encode(taxi.initial_state()))
        probs = pol.action_probs(0, codes)
        assert probs.shape == (4, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0.0)

    def test_network_reads_the_observation_rows_of_the_codes(self):
        from mfgsolve.envs import make_taxi

        taxi = make_taxi()
        net = DuelingQNetwork(taxi.obs_dim, taxi.num_actions, hidden_width=16, seed=9)
        pol = NetworkPolicy(net, taxi)
        rng = np.random.default_rng(3)
        codes = rng.integers(taxi.num_states, size=6)
        obs = np.concatenate([taxi.observe_codes(4, [c]) for c in codes])
        want = net.forward(obs).argmax(axis=1)
        probs = pol.action_probs(4, codes)
        np.testing.assert_array_equal(probs.argmax(axis=1), want)
        np.testing.assert_array_equal(probs.sum(axis=1), 1.0)

    def test_one_forward_row_per_distinct_code(self, monkeypatch):
        from mfgsolve.envs import make_taxi

        taxi = make_taxi()
        net = DuelingQNetwork(taxi.obs_dim, taxi.num_actions, hidden_width=32, seed=2)
        net = net.astype(np.float32)
        pol = NetworkPolicy(net, taxi, eta=0.5)
        codes = np.random.default_rng(5).choice(taxi.initial_codes(np.random.default_rng(6), 9), 60)
        want = dp.policy_rows(net.forward(taxi.observe_codes(7, codes)), 0.5)
        rows = []
        forward = DuelingQNetwork.forward
        monkeypatch.setattr(DuelingQNetwork, "forward",
                            lambda self, obs: rows.append(len(obs)) or forward(self, obs))
        probs = pol.action_probs(7, codes)
        assert rows == [len(np.unique(codes))] and rows[0] < len(codes)
        for code in codes:
            same = probs[codes == code]
            np.testing.assert_array_equal(same, np.broadcast_to(same[0], same.shape))
        # Batch sizes round differently in float32; rtol 1e-5 allows a few
        # ulps of the values, scaled by 1 / eta in the softmax.
        np.testing.assert_allclose(probs, want, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_greedy_rows_break_ties_as_the_table_does(self, dtype):
        # Actions 1 and 2 lie within ARGMAX_ATOL of the row maximum, so the
        # one tie rule picks 1 where a plain argmax picks 2; as float32 the
        # gap rounds away and both are exact ties.
        values = np.array([[0.5, 2.0, 2.0 + 0.5 * dp.ARGMAX_ATOL]] * 3, dtype=dtype)

        class StubNetwork:
            def forward(self, obs):
                return values[: len(obs)]

        env = make_rps()
        probs = NetworkPolicy(StubNetwork(), env).action_probs(1, np.arange(3))
        table = dp.greedy_policy(values.astype(np.float64)[None]).per_time_state[0]
        assert values.argmax(axis=1)[0] == (2 if dtype == np.float64 else 1)
        np.testing.assert_array_equal(probs, table)
        np.testing.assert_array_equal(probs.argmax(axis=1), 1)


class TestSharedBestResponse:
    """On sampled environments each stochastic exploitability's flow and
    best-response network are the next iteration's flow and network."""

    K = 3

    def _run(self, monkeypatch, env, hp, particles):
        from mfgsolve.rl import dqn, loop

        trainings, calls = [], []
        train = dqn.dqn_train
        expl = loop.exploitability_stochastic

        def recording_train(env, mu, hp, seed):
            net = train(env, mu, hp, seed)
            trainings.append((mu, net))
            return net

        def recording_expl(env, pi, *args, **kwargs):
            report = expl(env, pi, *args, **kwargs)
            calls.append((pi, report))
            return report

        # The exploitability imports dqn_train from rl.dqn at call time.
        monkeypatch.setattr(dqn, "dqn_train", recording_train)
        monkeypatch.setattr(loop, "dqn_train", recording_train)
        monkeypatch.setattr(loop, "exploitability_stochastic", recording_expl)
        log = boltzmann_dqn_iteration(
            env, SolverConfig(self.K, "boltzmann", 0.1), particles, hp, seed=0, eval_episodes=2
        )
        return log, trainings, calls

    @pytest.fixture
    def taxi_run(self, monkeypatch):
        from mfgsolve.envs import make_taxi

        hp = DqnHyperparams(hidden_width=8, epochs=2)
        return self._run(monkeypatch, make_taxi(), hp, ParticleConfig(1, 10, 0))

    def test_trains_k_plus_one_networks(self, taxi_run):
        log, trainings, calls = taxi_run
        assert len(log.records) == len(calls) == self.K
        assert len(trainings) == self.K + 1

    def test_next_flow_and_network_are_the_best_response(self, taxi_run):
        log, trainings, calls = taxi_run
        trained_on = {id(net): mu.per_time for mu, net in trainings}
        np.testing.assert_array_equal(trainings[0][0].per_time, log.meanfield_history[0])
        for k, (_, report) in enumerate(calls):
            np.testing.assert_array_equal(report.meanfield.per_time, log.meanfield_history[k + 1])
            np.testing.assert_array_equal(
                trained_on[id(report.best_response_net)], log.meanfield_history[k + 1]
            )
            if k + 1 < self.K:
                assert calls[k + 1][0].net is report.best_response_net

    def test_records_carry_the_standard_error(self, taxi_run):
        log, _, calls = taxi_run
        assert all(np.isfinite(r.std_error) for r in log.records)
        assert [r.std_error for r in log.records] == [rep.std_error for _, rep in calls]

    def test_tabular_loop_trains_every_iteration(self, monkeypatch):
        hp = DqnHyperparams(epochs=20, batch_size=8, hidden_width=8)
        log, trainings, calls = self._run(monkeypatch, make_rps(), hp, ParticleConfig(1, 50, 0))
        assert len(trainings) == self.K and calls == []
        assert all(r.std_error is None for r in log.records)
