import os

import numpy as np
import pytest

from conftest import random_affine_env
from mfgsolve import dp
from mfgsolve.core import MeanField, Policy, meanfield_distance, mix, policy_distance
from mfgsolve.envs import make_lr, make_rps, make_sis, make_toy_lr
from mfgsolve.errors import ConfigError
from mfgsolve.exploitability import exploitability_exact
from mfgsolve.solvers import (
    PriorDescentConfig,
    SolverConfig,
    boltzmann_iteration,
    detect_limit_cycle,
    exact_fpi,
    prior_descent,
)


class TestConfigValidation:
    def test_eta_exactly_when_not_exact(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_iterations=5, mode="exact", eta=1.0)
        with pytest.raises(ConfigError):
            SolverConfig(max_iterations=5, mode="boltzmann")
        SolverConfig(max_iterations=5, mode="boltzmann", eta=1.0)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_iterations=5, mode="annealed")

    def test_wrong_entry_point(self):
        cfg = SolverConfig(max_iterations=5, mode="boltzmann", eta=1.0)
        with pytest.raises(ConfigError):
            exact_fpi(make_lr(), cfg)
        with pytest.raises(ConfigError):
            boltzmann_iteration(make_lr(), SolverConfig(max_iterations=5))

    def test_prior_descent_c_below_one(self):
        with pytest.raises(ConfigError):
            PriorDescentConfig(
                SolverConfig(max_iterations=5, mode="boltzmann", eta=1.0),
                outer_iterations=2,
                c=0.5,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("convergence_tol", float("nan")),
            ("window", 2.5),
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("convergence_tol", "0.1"),
        ],
    )
    def test_solver_config_numbers(self, field, value):
        # A NaN tolerance never stopped a run, and a fractional window or
        # iteration count failed only late, with a TypeError.
        with pytest.raises(ConfigError, match=field):
            SolverConfig(**{"max_iterations": 5, "mode": "boltzmann", "eta": 1.0, field: value})

    @pytest.mark.parametrize(
        "field, value", [("outer_iterations", 1.5), ("c", float("nan")), ("c", None)]
    )
    def test_prior_descent_config_numbers(self, field, value):
        kwargs = {"outer_iterations": 2, "c": 1.2, field: value}
        with pytest.raises(ConfigError, match=field):
            PriorDescentConfig(
                SolverConfig(max_iterations=5, mode="boltzmann", eta=1.0), **kwargs
            )

    def test_numpy_numbers_accepted(self):
        cfg = SolverConfig(
            max_iterations=np.int64(5), mode="boltzmann", eta=1.0,
            convergence_tol=np.float64(1e-9), window=np.int32(3),
        )
        PriorDescentConfig(cfg, outer_iterations=np.int64(2), c=np.float64(1.2))


class TestExactFpi:
    def test_toy_lr_alternates(self):
        env = make_toy_lr()
        start = MeanField(np.array([[1.0, 0.0, 0.0], [0.0, 0.7, 0.3]]))
        log = exact_fpi(env, SolverConfig(max_iterations=20, initial_mean_field=start))
        assert log.limit_cycle_period == 2
        assert not log.converged
        assert log.trailing_stats()["min"] > 0.0

    def test_lr_policy_averaging_converges(self):
        env = make_lr()
        cfg = SolverConfig(max_iterations=5000, fp_average_policy=True)
        log = exact_fpi(env, cfg)
        assert log.records[-1].exploitability < 1e-3
        np.testing.assert_allclose(
            log.final_meanfield.per_time[1], [0, 2 / 3, 1 / 3], atol=1e-3
        )

    def test_fixed_point_stops_immediately(self):
        # Neither reward nor kernel depends on the flow, so the greedy
        # response to every flow is one policy, and its induced flow is a
        # fixed point that the very first iteration reproduces.
        env = random_affine_env(
            np.random.default_rng(11), 4, 5, 3, mu_reward=False, mu_transition=False
        )
        some_flow = dp.induced_mean_field(env, Policy.uniform(4, 5, 3))
        start = dp.induced_mean_field(env, dp.greedy_policy(dp.optimal_q(env, some_flow)))
        cfg = SolverConfig(max_iterations=50, convergence_tol=1e-12, initial_mean_field=start)
        log = exact_fpi(env, cfg)
        assert log.converged
        assert len(log.records) == 1

    def test_record_fields(self):
        env = make_toy_lr()
        log = exact_fpi(env, SolverConfig(max_iterations=8))
        assert len(log.records) <= 8
        for r in log.records:
            assert r.exploitability >= -1e-9
            assert r.elapsed_s >= 0.0
            assert r.eta == 0.0
        assert np.isfinite([r.mf_distance_final for r in log.records]).all()


class TestBoltzmannIteration:
    def test_lr_converges_above_threshold(self):
        env = make_lr()
        cfg = SolverConfig(
            max_iterations=10000, mode="boltzmann", eta=2.0, convergence_tol=1e-10
        )
        log = boltzmann_iteration(env, cfg)
        assert log.converged
        assert log.records[-1].mf_distance_prev < 1e-10

    @pytest.mark.parametrize("eta", [1.0, 2.0])
    def test_converged_run_reports_period_one(self, eta):
        # The trailing window still holds the approach to the fixed point,
        # whose snapshots lie farther apart than the cycle tolerance; a run
        # that stopped on convergence_tol has nonetheless settled.
        log = boltzmann_iteration(
            make_lr(),
            SolverConfig(
                max_iterations=10000, mode="boltzmann", eta=eta, convergence_tol=1e-10
            ),
        )
        assert log.converged
        assert log.limit_cycle_period == 1

    def test_geometric_decrease_above_threshold(self):
        # Above the guaranteed-contraction temperature the successive flow
        # distances shrink at least at the bound's rate (threshold/eta).
        env = make_lr()
        threshold = dp.contractivity_threshold(1.0, 1.0, 2, 0.5, 0.5)
        eta = 2.0
        log = boltzmann_iteration(
            env,
            SolverConfig(max_iterations=200, mode="boltzmann", eta=eta, convergence_tol=1e-12),
        )
        dists = np.array([r.mf_distance_prev for r in log.records])
        dists = dists[dists > 1e-13]
        ratios = dists[1:] / dists[:-1]
        assert np.all(ratios <= threshold / eta + 0.05)

    def test_huge_eta_returns_prior(self):
        env = make_lr()
        prior = Policy.uniform(env.horizon, env.num_states, env.num_actions)
        log = boltzmann_iteration(
            env,
            SolverConfig(max_iterations=5, mode="boltzmann", eta=1e9, prior=prior),
        )
        assert policy_distance(log.final_policy, prior) < 1e-6
        assert (
            meanfield_distance(log.final_meanfield, dp.induced_mean_field(env, prior))
            < 1e-6
        )

    @pytest.mark.parametrize("make", [make_lr, make_rps])
    def test_boltzmann_and_relent_series_coincide(self, make):
        # Terminal rewards are action-independent in these one-shot games,
        # so the smooth and hard recursions give the same first-step values.
        env = make()
        kwargs = dict(max_iterations=400, eta=0.5)
        a = boltzmann_iteration(env, SolverConfig(mode="boltzmann", **kwargs))
        b = boltzmann_iteration(env, SolverConfig(mode="relent", **kwargs))
        assert np.abs(a.exploitabilities - b.exploitabilities).max() < 1e-6

    def test_deterministic_replay(self):
        env = make_sis()
        cfg = SolverConfig(max_iterations=60, mode="relent", eta=0.15)
        a = boltzmann_iteration(env, cfg)
        b = boltzmann_iteration(env, cfg)
        np.testing.assert_array_equal(a.exploitabilities, b.exploitabilities)
        np.testing.assert_array_equal(
            a.final_meanfield.per_time, b.final_meanfield.per_time
        )
        np.testing.assert_array_equal(
            a.final_policy.per_time_state, b.final_policy.per_time_state
        )

    # K = 7 iterations: K + 1 sweeps; a mixed flow (iterations 2 .. K - 1)
    # gets one more each, 2K - 1 in all.
    @pytest.mark.parametrize(
        "mode, fp_meanfield, sweeps",
        [("boltzmann", False, 8), ("relent", False, 8), ("relent", True, 13)],
    )
    def test_one_backward_sweep_per_flow(self, monkeypatch, mode, fp_meanfield, sweeps):
        # Each induced flow's one sweep stacks the best response, the policy
        # evaluation and, in relent mode, the next policy step's soft Q; only
        # the start flow, and each flow mixed by fictitious play, needs a
        # sweep of its own for the policy step.
        calls = []
        original = dp.backward_sweep
        monkeypatch.setattr(
            dp, "backward_sweep", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        cfg = SolverConfig(
            max_iterations=7, mode=mode, eta=0.3, fp_average_meanfield=fp_meanfield
        )
        boltzmann_iteration(make_sis(), cfg)
        assert len(calls) == sweeps

    def test_policy_rows_stay_simplex_under_fp(self):
        env = make_sis()
        cfg = SolverConfig(
            max_iterations=40,
            mode="boltzmann",
            eta=0.2,
            fp_average_policy=True,
            fp_average_meanfield=True,
        )
        log = boltzmann_iteration(env, cfg)
        rows = log.final_policy.per_time_state
        assert np.all(rows >= 0.0)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)


def naive_iterate(env, cfg):
    """The fixed-point loop with every step recomputed from scratch through
    the public API: no table, flow or action value is shared."""
    pi = prior = Policy.uniform(env.horizon, env.num_states, env.num_actions)
    mu = dp.induced_mean_field(env, prior)
    series = []
    for k in range(cfg.max_iterations):
        if cfg.mode == "relent":
            pi_new = dp.boltzmann_policy(dp.soft_q(env, mu, cfg.eta, prior), cfg.eta, prior)
        elif cfg.mode == "boltzmann":
            pi_new = dp.boltzmann_policy(dp.optimal_q(env, mu), cfg.eta, prior)
        else:
            pi_new = dp.greedy_policy(dp.optimal_q(env, mu))
        if cfg.fp_average_policy and k > 0:
            pi_new = mix(pi_new, pi, 1.0 / (k + 1))
        mu_next = dp.induced_mean_field(env, pi_new)
        if cfg.fp_average_meanfield and k > 0:
            mu_next = mix(mu_next, mu, 1.0 / (k + 1))
        series.append(exploitability_exact(env, pi_new).value)
        pi, mu = pi_new, mu_next
    return series, pi, mu


def _affine_s5():
    return random_affine_env(np.random.default_rng(5), 6, 5, 3)


class TestSharedWorkMatchesNaiveLoop:
    """``_iterate`` shares each flow's tables, and in exact and boltzmann
    mode the best response's Q, with the next policy step.  That sharing
    must not move a single bit, with or without fictitious-play mixing."""

    @pytest.mark.parametrize("fp_meanfield", [False, True])
    @pytest.mark.parametrize("fp_policy", [False, True])
    @pytest.mark.parametrize("mode", ["exact", "boltzmann", "relent"])
    @pytest.mark.parametrize(
        "make, iterations",
        [(make_rps, 8), (make_sis, 5), (_affine_s5, 8)],
        ids=["rps", "sis", "affine_s5"],
    )
    def test_bit_identical(self, make, iterations, mode, fp_policy, fp_meanfield):
        env = make()
        cfg = SolverConfig(
            max_iterations=iterations,
            mode=mode,
            eta=None if mode == "exact" else 0.3,
            fp_average_policy=fp_policy,
            fp_average_meanfield=fp_meanfield,
        )
        log = (exact_fpi if mode == "exact" else boltzmann_iteration)(env, cfg)
        series, pi, mu = naive_iterate(env, cfg)
        assert log.exploitabilities.tolist() == series
        np.testing.assert_array_equal(log.final_policy.per_time_state, pi.per_time_state)
        np.testing.assert_array_equal(log.final_meanfield.per_time, mu.per_time)


class TestDetectLimitCycle:
    def test_period_two(self):
        a = np.array([[0.3, 0.7]])
        b = np.array([[0.8, 0.2]])
        history = [a, b] * 6
        assert detect_limit_cycle(history, max_period=4) == 2

    def test_converged_is_period_one(self):
        history = [np.array([[0.4, 0.6]])] * 10
        assert detect_limit_cycle(history, max_period=4) == 1

    def test_noise_is_aperiodic(self):
        rng = np.random.default_rng(0)
        history = [rng.dirichlet(np.ones(3))[None, :] for _ in range(20)]
        assert detect_limit_cycle(history, max_period=5) is None

    def test_insufficient_history(self):
        with pytest.raises(ValueError):
            detect_limit_cycle([np.array([[1.0]])] * 3, max_period=2)


class TestPriorDescent:
    def test_single_outer_matches_inner_solver(self):
        env = make_lr()
        pd = prior_descent(
            env,
            PriorDescentConfig(
                SolverConfig(max_iterations=30, mode="boltzmann", eta=1.0),
                outer_iterations=1,
                c=2.0,
            ),
        )
        inner = boltzmann_iteration(
            env, SolverConfig(max_iterations=30, mode="boltzmann", eta=1.0)
        )
        np.testing.assert_array_equal(pd.exploitabilities, inner.exploitabilities)

    def test_eta_schedule_recorded(self):
        env = make_lr()
        pd = prior_descent(
            env,
            PriorDescentConfig(
                SolverConfig(max_iterations=5, mode="boltzmann", eta=1.0),
                outer_iterations=3,
                c=2.0,
            ),
        )
        etas = [r.eta for r in pd.records]
        assert etas[:5] == [1.0] * 5
        assert etas[5:10] == [2.0] * 5
        assert etas[10:] == [4.0] * 5

    def test_lr_descends_to_exact_equilibrium(self):
        env = make_lr()
        pd = prior_descent(
            env,
            PriorDescentConfig(
                SolverConfig(
                    max_iterations=150, mode="boltzmann", eta=1.0, convergence_tol=1e-12
                ),
                outer_iterations=20,
                c=1.0,
            ),
        )
        assert pd.records[-1].exploitability < 1e-4

    def test_sis_fixed_temperature_not_monotone(self):
        env = make_sis()
        pd = prior_descent(
            env,
            PriorDescentConfig(
                SolverConfig(max_iterations=100, mode="relent", eta=0.1),
                outer_iterations=20,
                c=1.0,
            ),
        )
        ends = [r.exploitability for r in pd.records[99::100]]  # each phase's last
        diffs = np.diff(ends)
        assert np.any(diffs > 0.0)

    def test_deterministic_replay(self):
        env = make_lr()
        cfg = PriorDescentConfig(
            SolverConfig(max_iterations=20, mode="boltzmann", eta=0.8),
            outer_iterations=4,
            c=1.3,
        )
        a = prior_descent(env, cfg)
        b = prior_descent(env, cfg)
        np.testing.assert_array_equal(a.exploitabilities, b.exploitabilities)

    def test_outer_iterations_reuse_the_prior_flow(self, monkeypatch):
        # Each outer iteration's prior is the previous inner run's final
        # policy, whose induced flow that run has already computed.
        from mfgsolve import cli

        calls = []
        original = dp.induced_mean_field
        monkeypatch.setattr(
            dp, "induced_mean_field", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
        cfg = cli.load_config(os.path.join(path, "sis_prior_descent.json"))
        log = cli.run_cell(cfg, cfg["eta_grid"][0], cfg["seeds"][0])
        assert len(log.records) == 2000
        assert len(calls) == 2000 + 1  # one per iteration, plus the first prior's flow

    # A phase's softmax underflows to an exact 0, and that policy becomes
    # the next prior; its logits stay finite.
    def test_lr_cold_start_survives_underflow(self):
        log = prior_descent(
            make_lr(),
            PriorDescentConfig(
                SolverConfig(max_iterations=20, mode="boltzmann", eta=0.001),
                outer_iterations=3,
            ),
        )
        assert np.any(log.final_policy.per_time_state == 0.0)
        assert np.all(np.isfinite(log.exploitabilities))

    def test_sis_cold_start_survives_underflow(self):
        log = prior_descent(
            make_sis(),
            PriorDescentConfig(
                SolverConfig(max_iterations=100, mode="relent", eta=0.002),
                outer_iterations=20,
                c=1.2,
            ),
        )
        assert np.any(log.final_policy.per_time_state == 0.0)
        assert np.all(np.isfinite(log.exploitabilities))

    @pytest.mark.filterwarnings("error")
    def test_policy_averaged_cold_start_survives_underflow(self):
        # The prior is then the averaged policy, whose exact 0s are logits
        # of -inf: no warning, and the zeros stay zeros.
        log = prior_descent(
            random_affine_env(np.random.default_rng(1), 6, 5, 3),
            PriorDescentConfig(
                SolverConfig(
                    max_iterations=10, mode="boltzmann", eta=0.01, fp_average_policy=True
                ),
                outer_iterations=8,
                c=1.1,
            ),
        )
        assert np.any(log.final_policy.per_time_state == 0.0)
        assert np.all(np.isfinite(log.exploitabilities))

    @pytest.mark.parametrize("fp_meanfield", [False, True])
    def test_series_match_restarting_each_outer_iteration(self, fp_meanfield):
        # An explicit logit accumulation through the public API: each outer
        # iteration restarts the flow average at the last policy's induced
        # flow, with that policy as the soft Q's prior and its logits,
        # ``log(prior)`` plus each outer iteration's last ``q / eta``
        # (shifted to a row maximum of 0), as the softmax's.  The second
        # schedule is one iteration per outer iteration at a fixed
        # temperature.
        env = make_sis()
        for inner, outer, c in [(4, 3, 1.2), (1, 12, 1.0)]:
            cfg = PriorDescentConfig(
                SolverConfig(
                    max_iterations=inner, mode="relent", eta=0.15,
                    fp_average_meanfield=fp_meanfield,
                ),
                outer_iterations=outer,
                c=c,
            )
            prior = Policy.uniform(env.horizon, env.num_states, env.num_actions)
            logits, eta, expected = np.log(prior.per_time_state), cfg.inner.eta, []
            mu = dp.induced_mean_field(env, prior)
            for _ in range(outer):
                for k in range(inner):
                    z = logits + dp.soft_q(env, mu, eta, prior).values / eta
                    pi = Policy(dp.softmax(z))
                    unmixed = dp.induced_mean_field(env, pi)
                    mu = mix(unmixed, mu, 1.0 / (k + 1)) if fp_meanfield and k else unmixed
                    expected.append(exploitability_exact(env, pi).value)
                logits, prior, eta, mu = z - z.max(axis=2, keepdims=True), pi, eta * c, unmixed
            np.testing.assert_array_equal(
                prior_descent(env, cfg).exploitabilities, np.array(expected)
            )

    @pytest.mark.parametrize("mode, sweeps", [("boltzmann", 16), ("relent", 18)])
    def test_phase_boundary_reuses_the_last_tables(self, monkeypatch, mode, sweeps):
        # 3 phases of 5 iterations: one table build and one sweep per flow
        # (the start flow and 15 induced flows).  A new phase starts on the
        # last induced flow, so it builds no tables; in relent mode it sweeps
        # once more for the new prior's soft Q.
        calls = {"flow_tables": 0, "backward_sweep": 0}
        for name in calls:
            original = getattr(dp, name)
            monkeypatch.setattr(
                dp, name,
                lambda *a, _f=original, _n=name, **k: calls.__setitem__(_n, calls[_n] + 1)
                or _f(*a, **k),
            )
        prior_descent(
            make_sis(),
            PriorDescentConfig(
                SolverConfig(max_iterations=5, mode=mode, eta=0.3),
                outer_iterations=3,
                c=1.2,
            ),
        )
        assert calls == {"flow_tables": 16, "backward_sweep": sweeps}


def test_exact_fpi_deterministic_replay():
    env = make_toy_lr()
    rng = np.random.default_rng(3)
    start = MeanField(np.array([[1.0, 0.0, 0.0], rng.dirichlet(np.ones(3))]))
    cfg = SolverConfig(max_iterations=15, initial_mean_field=start)
    a = exact_fpi(env, cfg)
    b = exact_fpi(env, cfg)
    np.testing.assert_array_equal(a.exploitabilities, b.exploitabilities)
