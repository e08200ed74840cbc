"""Softmax fixed-point iteration with learned action values and simulated
population flows (the large-scale counterpart of the tabular solvers).

The loop is the solvers' fixed-point skeleton (``solvers.fixed_point_loop``)
with a learned step: train a Q-network on the MDP frozen at the current flow,
take the softmax-with-prior policy of its values, measure its exploitability
and simulate the next flow with particles.  The skeleton's stopping rule,
window and limit-cycle detection therefore apply here as they do to the
tabular loops.  On tabular environments the network is collapsed to a dense
table so the policy and the exploitability stay exact; on sampled
environments (taxi) both the policy and the evaluation are stochastic, and
the stochastic exploitability's simulated flow and best-response network,
trained on that very flow, become the next iteration's flow and network.  A
sampled run of K iterations thus trains K + 1 networks and simulates K + 1
flows.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import dp
from ..core import MeanField, Policy
from ..envs.base import EnvironmentSpec
from ..errors import ConfigError
from ..exploitability import exploitability_exact, exploitability_stochastic
from ..sim import FixedActionPolicy, ParticleConfig, simulate_mean_field
from ..solvers import IterationLog, SolverConfig, fixed_point_loop
from .dqn import DqnHyperparams, dqn_train
from .policies import (
    BoltzmannNetworkPolicy,
    GreedyNetworkPolicy,
    network_q_table,
)


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def boltzmann_dqn_iteration(
    env,
    eta: float,
    prior: Policy | np.ndarray | None,
    iterations: int,
    particles: ParticleConfig,
    hp: DqnHyperparams | None = None,
    seed: int = 0,
    eval_episodes: int = 500,
    window: int = SolverConfig.window,
    convergence_tol: float = SolverConfig.convergence_tol,
) -> IterationLog:
    """Run the learned softmax fixed-point loop and log exploitability.

    ``eta=0`` selects greedy policies over the network values (the
    temperature-zero reference point); any other ``eta`` must be a positive
    finite temperature.  ``prior`` is a tabular Policy for tabular
    environments or a single action distribution for sampled ones (default
    uniform in both cases).  ``window`` and ``convergence_tol`` act as in
    ``SolverConfig``.

    Only the plain Bellman recursion with softmax policies is offered here,
    not the entropy-regularized ('relent') value fitting: exponentiating
    approximated action values inside the smooth-maximum recursion fails
    quickly in floating point.  Tabular 'relent' solving is unaffected.
    """
    if eta < 0.0:
        raise ConfigError("eta must be >= 0 (0 means greedy)")
    cfg = SolverConfig(
        max_iterations=iterations,
        mode="boltzmann" if eta else "exact",
        eta=eta or None,
        convergence_tol=convergence_tol,
        window=window,
    )
    hp = hp or DqnHyperparams()
    tabular = isinstance(env, EnvironmentSpec)
    init_ss, *iter_ss = np.random.SeedSequence(seed).spawn(1 + iterations)

    if tabular:
        prior = prior if prior is not None else Policy.uniform(
            env.horizon, env.num_states, env.num_actions
        )
        start_policy = prior.require_positive()
    else:
        start_policy = FixedActionPolicy(env.num_actions, prior)
        prior = start_policy.probs
        if np.any(prior <= 0.0):
            raise ConfigError("prior must be strictly positive")

    trained = None  # (flow, the network trained on it)

    def step(k: int, _eta, mu: MeanField, _pi):
        nonlocal trained
        train_ss, sim_ss, eval_ss = iter_ss[k].spawn(3)
        if trained is None or trained[0] is not mu:
            trained = mu, dqn_train(env, mu, hp, seed=_seed_int(train_ss))
        net = trained[1]
        if tabular:
            qtab = network_q_table(net, env)
            if eta > 0.0:
                policy = dp.boltzmann_policy(qtab, eta, prior)
            else:
                policy = dp.greedy_policy(qtab)
            report = exploitability_exact(env, policy)
            mu_next = simulate_mean_field(
                env, policy, replace(particles, seed=_seed_int(sim_ss))
            )
            return policy, report, mu_next
        if eta > 0.0:
            policy = BoltzmannNetworkPolicy(net, env, eta, prior)
        else:
            policy = GreedyNetworkPolicy(net, env)
        # The report's best response is trained on the policy's simulated
        # flow: exactly the next iteration's training problem.
        report = exploitability_stochastic(
            env,
            policy,
            particles,
            episodes=eval_episodes,
            rng_seed=_seed_int(eval_ss),
            br_hyperparams=hp,
        )
        trained = report.meanfield, report.best_response_net
        return policy, report, report.meanfield

    mu = simulate_mean_field(env, start_policy, replace(particles, seed=_seed_int(init_ss)))
    return fixed_point_loop(mu, step, cfg)
