"""End-to-end acceptance checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The Taxi checks are marked slow (deselected by default);
include them with ``-m slow`` or run the full suite with ``-m ''``.
"""

import json
import os
import time

import numpy as np
import pytest

import mfgsolve as m
from conftest import random_env, random_policy
from mfgsolve import dp
from mfgsolve.core import MeanField, Policy
from mfgsolve.rl import DqnHyperparams, DuelingQNetwork, dqn_train, network_q_table
from mfgsolve.rl.loop import boltzmann_dqn_iteration
from mfgsolve.sim import ParticleConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def sis_prior_descent_log():
    # The tuned schedule lives in configs/sis_prior_descent.json.
    with open(os.path.join(CONFIG_DIR, "sis_prior_descent.json")) as f:
        cfg = json.load(f)
    pd = cfg["prior_descent"]
    return m.prior_descent(
        m.make_sis(),
        m.PriorDescentConfig(
            m.SolverConfig(
                max_iterations=pd["inner"], mode=cfg["solver"], eta=cfg["eta_grid"][0]
            ),
            outer_iterations=pd["outer"],
            c=pd["c"],
        ),
    )


def _lr_response(p: float, eta: float) -> float:
    """One softmax step on ``lr`` from the uniform prior: the share moving
    left when a share ``p`` moved left before.  Left costs p at t=1 (weight
    1), right costs 2(1 - p) (weight 2), so g(p) = sigmoid((2 - 3p) / eta)."""
    return 1.0 / (1.0 + np.exp(-(2.0 - 3.0 * p) / eta))


def _lr_fixed_point(eta: float) -> float:
    # g decreases, so g(p) - p has exactly one root in [0, 1]: bisect it.
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _lr_response(mid, eta) > mid else (lo, mid)
    return 0.5 * (lo + hi)


class TestCriterion1:
    def test_toy_lr_alternation(self):
        start = time.perf_counter()
        env = m.make_toy_lr()
        periods, bands = [], []
        for split in (0.7, 0.55, 1.0):
            mu0 = MeanField(np.array([[1.0, 0.0, 0.0], [0.0, split, 1.0 - split]]))
            log = m.exact_fpi(
                env, m.SolverConfig(max_iterations=20, initial_mean_field=mu0)
            )
            periods.append(log.limit_cycle_period)
            bands.append(log.trailing_stats()["min"])
        elapsed = time.perf_counter() - start
        ok = all(p == 2 for p in periods) and all(b > 0 for b in bands) and elapsed < 1.0
        report(
            "1",
            ok,
            f"toy-LR exact FPI: periods={periods}, trailing min expl={bands}, "
            f"{elapsed:.2f}s",
        )


class TestCriterion2:
    def test_threshold_formula(self):
        value = m.contractivity_threshold(1.0, 1.0, 2, 0.5, 0.5)
        report("2/threshold", value == 1.0, f"contractivity_threshold(1,1,2,.5,.5)={value}")

    @pytest.mark.parametrize("eta", [0.7, 1.0, 2.0])
    def test_lr_convergence(self, eta):
        # Each case's outcome follows from the slope |g'(p*)| of the analytic
        # response map at its fixed point.  Below 1 the undamped iteration
        # contracts onto p*.  Above 1 (eta=0.7; the frontier is ~0.7288) p*
        # repels and the iteration settles on g's period-2 orbit, as the
        # greedy iteration does, and exploitability stays bounded away from 0.
        p_star = _lr_fixed_point(eta)
        slope = 3.0 * p_star * (1.0 - p_star) / eta
        start = time.perf_counter()
        log = m.boltzmann_iteration(
            m.make_lr(),
            m.SolverConfig(
                max_iterations=10000, mode="boltzmann", eta=eta, convergence_tol=1e-10
            ),
        )
        elapsed = time.perf_counter() - start
        a, b = (snap[1, 1] for snap in log.meanfield_history[-2:])
        if slope < 1.0:
            ok = (
                log.converged
                and elapsed < 10.0
                and abs(b - p_star) <= 1e-8
                and log.limit_cycle_period == 1
            )
            outcome = f"converges to p*={p_star:.6f}, final mu_1(L)={b:.10f}"
        else:
            ok = (
                not log.converged
                and log.limit_cycle_period == 2
                and abs(_lr_response(a, eta) - b) <= 1e-9
                and all(
                    abs(_lr_response(_lr_response(x, eta), eta) - x) <= 1e-9
                    and abs(x - p_star) > 0.1
                    for x in (a, b)
                )
                and log.trailing_stats()["min"] > 0.0
            )
            outcome = (
                f"2-cycle around p*={p_star:.6f}: mu_1(L)={a:.4f} <-> {b:.4f}, "
                f"trailing min expl={log.trailing_stats()['min']:.4f}"
            )
        report(
            f"2/eta={eta}",
            ok,
            f"|g'(p*)|={slope:.4f}, {outcome}, converged={log.converged}, "
            f"period={log.limit_cycle_period} after {len(log.records)} iterations, "
            f"last distance={log.records[-1].mf_distance_prev:.2e}, {elapsed:.1f}s",
        )


class TestCriterion3:
    def test_lr_analytic_equilibrium(self):
        # Indifference between the two crowd penalties forces mass 2/3 left.
        log = m.prior_descent(
            m.make_lr(),
            m.PriorDescentConfig(
                m.SolverConfig(
                    max_iterations=150, mode="boltzmann", eta=1.0, convergence_tol=1e-12
                ),
                outer_iterations=20,
                c=1.0,
            ),
        )
        target = np.array([0.0, 2.0 / 3.0, 1.0 / 3.0])
        dist = m.tv_distance(log.final_meanfield.per_time[1], target)
        expl = m.exploitability_exact(m.make_lr(), log.final_policy).value
        ok = dist <= 0.01 and expl < 1e-3
        report("3", ok, f"d_TV to (0,2/3,1/3)={dist:.2e}, exploitability={expl:.2e}")


class TestCriterion4:
    def test_sis_prior_descent_beats_fixed_prior(self, sis_prior_descent_log):
        start = time.perf_counter()
        env = m.make_sis()
        fixed_best = np.inf
        for eta in (0.05, 0.07, 0.1, 0.15, 0.2, 0.5, 1.0):
            log = m.boltzmann_iteration(
                env,
                m.SolverConfig(
                    max_iterations=600, mode="relent", eta=eta, convergence_tol=1e-10
                ),
            )
            fixed_best = min(fixed_best, log.trailing_stats()["mean"])
        final = sis_prior_descent_log.records[-1].exploitability
        elapsed = time.perf_counter() - start
        ok = final <= 0.10 and final < fixed_best and elapsed < 600.0
        report(
            "4",
            ok,
            f"prior descent final={final:.4f} (target <= 0.10), best fixed-prior "
            f"trailing mean={fixed_best:.4f}, {elapsed:.0f}s",
        )


class TestCriterion5:
    def test_fictitious_play_profile(self, sis_prior_descent_log):
        start = time.perf_counter()
        lr, rps, sis = m.make_lr(), m.make_rps(), m.make_sis()
        fp_both_lr = m.exact_fpi(
            lr,
            m.SolverConfig(
                max_iterations=5000, fp_average_policy=True, fp_average_meanfield=True
            ),
        ).records[-1].exploitability
        fp_both_sis = m.exact_fpi(
            sis,
            m.SolverConfig(
                max_iterations=1500, fp_average_policy=True, fp_average_meanfield=True
            ),
        ).records[-1].exploitability
        fp_pol_rps = m.exact_fpi(
            rps, m.SolverConfig(max_iterations=3000, fp_average_policy=True)
        ).records[-1].exploitability
        fp_pol_sis = m.exact_fpi(
            sis, m.SolverConfig(max_iterations=1500, fp_average_policy=True)
        ).records[-1].exploitability
        pd_final = sis_prior_descent_log.records[-1].exploitability
        elapsed = time.perf_counter() - start
        ok = (
            fp_both_lr < 1e-2
            and fp_both_sis > 0.05
            and fp_pol_rps < 1e-2
            and fp_pol_sis > pd_final
            and elapsed < 300.0
        )
        report(
            "5",
            ok,
            f"FP-both LR={fp_both_lr:.4f} (<1e-2), FP-both SIS={fp_both_sis:.3f} "
            f"(>0.05), FP-policy RPS={fp_pol_rps:.4f} (<1e-2), FP-policy SIS="
            f"{fp_pol_sis:.3f} (> prior-descent {pd_final:.3f}), {elapsed:.0f}s",
        )


class TestCriterion6:
    def test_soft_value_properties(self):
        start = time.perf_counter()
        etas = (1e-3, 1e-2, 0.1, 1.0, 10.0)
        worst_violation = 0.0
        for make in (m.make_lr, m.make_rps, m.make_sis):
            env = make()
            prior = Policy.uniform(env.horizon, env.num_states, env.num_actions)
            mu = dp.induced_mean_field(env, prior)
            qstar = dp.optimal_q(env, mu)
            prev = None
            for eta in etas:
                qs = dp.soft_q(env, mu, eta, prior)
                gap = np.abs(qs - qstar).max()
                bound = eta * env.horizon * np.log(env.num_actions)
                worst_violation = max(worst_violation, gap - bound)
                if prev is not None:
                    worst_violation = max(worst_violation, float((qs - prev).max()))
                prev = qs
        elapsed = time.perf_counter() - start
        ok = worst_violation <= 1e-9 and elapsed < 5.0
        report(
            "6",
            ok,
            f"monotone decrease + eta*T*log|A| bound on LR/RPS/SIS, worst "
            f"violation={worst_violation:.1e}, {elapsed:.1f}s",
        )


class TestCriterion7:
    def test_softmax_solution_is_unbeaten(self):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = -np.inf
        for _ in range(20):
            env = random_env(
                rng,
                horizon=int(rng.integers(2, 6)),
                num_states=int(rng.integers(2, 5)),
                num_actions=int(rng.integers(2, 5)),
            )
            mu = MeanField(rng.dirichlet(np.ones(env.num_states), size=env.horizon))
            prior = random_policy(rng, env)
            eta = float(rng.uniform(0.05, 2.0))
            star = dp.boltzmann_policy(dp.soft_q(env, mu, eta, prior), eta, prior)
            best = dp.regularized_objective(env, mu, star, eta, prior)
            for k in range(200):
                if k % 2:
                    challenger = random_policy(rng, env)
                else:
                    lam = rng.uniform(0.01, 0.5)
                    challenger = m.mix(random_policy(rng, env), star, lam)
                val = dp.regularized_objective(env, mu, challenger, eta, prior)
                worst = max(worst, val - best)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 30.0
        report(
            "7",
            ok,
            f"20 random games x 200 challengers: max objective excess="
            f"{worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion8:
    def test_particle_consistency(self):
        start = time.perf_counter()
        env = m.make_sis()
        pi = Policy.uniform(env.horizon, 2, 2)
        exact = dp.induced_mean_field(env, pi)
        medians = {}
        for particles in (10, 100, 1000, 10000):
            dists = [
                m.meanfield_distance(
                    m.simulate_mean_field(env, pi, ParticleConfig(5, particles, s)),
                    exact,
                )
                for s in range(10)
            ]
            medians[particles] = float(np.median(dists))
        decreasing = all(
            medians[a] > medians[b] for a, b in ((10, 100), (100, 1000), (1000, 10000))
        )
        elapsed = time.perf_counter() - start
        ok = medians[1000] < 0.05 and decreasing and elapsed < 60.0
        report(
            "8",
            ok,
            f"median flow errors {medians} (M=1000 < 0.05, decreasing), {elapsed:.0f}s",
        )


class TestCriterion9:
    def test_rps_learned_policy_matches_exact(self):
        start = time.perf_counter()
        env = m.make_rps()
        pi = Policy.uniform(env.horizon, env.num_states, env.num_actions)
        mu = dp.induced_mean_field(env, pi)
        qstar = dp.optimal_q(env, mu)
        reachable = [(0, 0), (1, 1), (1, 2), (1, 3)]
        hits = 0
        for seed in range(5):
            qnet = network_q_table(dqn_train(env, mu, DqnHyperparams(), seed=seed), env)
            hits += all(
                qstar[t, s, qnet[t, s].argmax()] >= qstar[t, s].max() - 1e-9
                for t, s in reachable
            )
        elapsed = time.perf_counter() - start
        ok = hits >= 4 and elapsed < 900.0
        report("9/rps", ok, f"greedy-matches-exact on {hits}/5 seeds, {elapsed:.0f}s")

    @pytest.mark.slow
    def test_taxi_uniform_prior_exploitability(self):
        from mfgsolve.exploitability import exploitability_stochastic
        from mfgsolve.sim import FixedActionPolicy

        start = time.perf_counter()
        taxi = m.make_taxi()
        rep = exploitability_stochastic(
            taxi,
            FixedActionPolicy(taxi.num_actions),
            particles=ParticleConfig(5, 200, 0),
            episodes=500,
            rng_seed=0,
            br_hyperparams=DqnHyperparams(),
        )
        elapsed = time.perf_counter() - start
        ok = 25.0 <= rep.value <= 45.0
        report(
            "9/taxi-prior",
            ok,
            f"uniform-prior exploitability={rep.value:.1f} (band [25, 45]), "
            f"se={rep.std_error:.2f}, {elapsed:.0f}s",
        )

    @pytest.mark.slow
    def test_taxi_boltzmann_dqn_completes(self):
        # Smoke run: full iteration/particle/evaluation counts, shortened
        # network training so the 15 iterations stay inside a few hours.
        start = time.perf_counter()
        taxi = m.make_taxi()
        log = boltzmann_dqn_iteration(
            taxi,
            m.SolverConfig(15, "boltzmann", 0.1),
            ParticleConfig(5, 200, 0),
            DqnHyperparams(epochs=250),
            seed=0,
            eval_episodes=500,
        )
        elapsed = time.perf_counter() - start
        finite = all(
            np.isfinite(r.exploitability) and np.isfinite(r.mf_distance_prev)
            for r in log.records
        )
        ok = len(log.records) == 15 and finite
        report(
            "9/taxi-loop",
            ok,
            f"15 iterations completed, all records finite={finite}, "
            f"exploitability range=[{min(r.exploitability for r in log.records):.1f}, "
            f"{max(r.exploitability for r in log.records):.1f}], {elapsed:.0f}s",
        )


class TestCriterion10:
    def test_numerical_kernel_suite(self):
        rng = np.random.default_rng(7)
        # gradient vs central finite differences on a small net
        net = DuelingQNetwork(3, 2, hidden_width=8, seed=11)
        obs = rng.normal(size=(8, 3))
        actions = rng.integers(2, size=8)
        targets = rng.normal(size=8)
        _, grads = net.loss_and_grad(obs, actions, targets)
        h = 1e-6
        worst_rel = 0.0
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
                worst_rel = max(
                    worst_rel, abs(fd - gf[i]) / max(abs(fd), abs(gf[i]), 1e-6)
                )
        grad_ok = worst_rel < 1e-4

        # metric axioms on random simplex tensors
        metric_ok = True
        for _ in range(200):
            p, q, r = (rng.dirichlet(np.ones(4)) for _ in range(3))
            metric_ok &= abs(m.tv_distance(p, q) - m.tv_distance(q, p)) < 1e-15
            metric_ok &= m.tv_distance(p, p) < 1e-12
            metric_ok &= (
                m.tv_distance(p, r) <= m.tv_distance(p, q) + m.tv_distance(q, r) + 1e-12
            )

        # simplex preservation through averaging and solver steps
        env = m.make_sis()
        log = m.boltzmann_iteration(
            env,
            m.SolverConfig(
                max_iterations=30,
                mode="boltzmann",
                eta=0.2,
                fp_average_policy=True,
                fp_average_meanfield=True,
            ),
        )
        rows = log.final_policy.per_time_state
        simplex_ok = bool(
            np.all(rows >= 0) and np.all(np.abs(rows.sum(axis=-1) - 1) < 1e-12)
        )

        # deterministic replay of seeded runs
        pi = Policy.uniform(env.horizon, 2, 2)
        sim_a = m.simulate_mean_field(env, pi, ParticleConfig(3, 200, 5)).per_time
        sim_b = m.simulate_mean_field(env, pi, ParticleConfig(3, 200, 5)).per_time
        solver_a = m.boltzmann_iteration(
            env, m.SolverConfig(max_iterations=25, mode="relent", eta=0.15)
        )
        solver_b = m.boltzmann_iteration(
            env, m.SolverConfig(max_iterations=25, mode="relent", eta=0.15)
        )
        replay_ok = bool(
            np.array_equal(sim_a, sim_b)
            and np.array_equal(solver_a.exploitabilities, solver_b.exploitabilities)
        )

        ok = grad_ok and metric_ok and simplex_ok and replay_ok
        report(
            "10",
            ok,
            f"gradient rel err={worst_rel:.1e}, metric axioms={metric_ok}, "
            f"simplex preserved={simplex_ok}, deterministic replay={replay_ok}",
        )
