"""Softmax fixed-point iteration with learned action values and simulated
population flows (the large-scale counterpart of the tabular solvers).

The loop is the solvers' fixed-point skeleton (``solvers.fixed_point_loop``)
with a learned step: train a Q-network on the MDP frozen at the current flow,
take the ``dp.policy_rows`` of its values at the skeleton's temperature (the
greedy rows in mode 'exact', where it is None) with the prior's logits,
measure the policy's exploitability and simulate the next flow with
particles.  It takes the tabular loops' ``SolverConfig``, so the skeleton's
stopping rule, window and limit-cycle detection apply here as they do
there, and the prior and its logits come from ``solvers.resolve_prior``,
the one resolver for both kinds of game.  On tabular environments the
network is collapsed to a dense table so the policy and the exploitability
stay exact; on sampled environments (taxi) both the policy and the
evaluation are stochastic, and the stochastic exploitability's simulated
flow and best-response network, trained on that very flow, become the next
iteration's flow and network.  A sampled run of K iterations thus trains
K + 1 networks and simulates K + 1 flows.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .. import dp
from ..core import MeanField, Policy
from ..envs.base import EnvironmentSpec
from ..errors import ConfigError
from ..exploitability import exploitability_exact, exploitability_stochastic
from ..sim import ParticleConfig, seed_int, simulate_mean_field
from ..solvers import IterationLog, SolverConfig, fixed_point_loop, resolve_prior
from .dqn import DqnHyperparams, dqn_train
from .policies import NetworkPolicy, network_q_table


def boltzmann_dqn_iteration(
    env,
    cfg: SolverConfig,
    particles: ParticleConfig,
    hp: DqnHyperparams | None = None,
    seed: int = 0,
    eval_episodes: int = 500,
) -> IterationLog:
    """Run the learned softmax fixed-point loop of ``cfg`` and log
    exploitability.

    ``cfg`` is the tabular loops' config: ``mode`` 'exact' takes greedy
    policies over the network values, 'boltzmann' softmax ones at ``eta``.
    Its ``prior`` is resolved by ``solvers.resolve_prior`` before any work.

    Only the plain Bellman recursion with softmax policies is offered here,
    not the entropy-regularized ('relent') value fitting: exponentiating
    approximated action values inside the smooth-maximum recursion fails
    quickly in floating point.  Tabular 'relent' solving is unaffected.
    Fictitious play and a given start flow are refused too.
    """
    if cfg.mode == "relent" or cfg.fp_average_policy or cfg.fp_average_meanfield or (
        cfg.initial_mean_field is not None
    ):
        raise ConfigError(
            "the learned loop takes no 'relent' mode, fictitious play or initial_mean_field"
        )
    hp = hp or DqnHyperparams()
    tabular = isinstance(env, EnvironmentSpec)
    init_ss, *iter_ss = np.random.SeedSequence(seed).spawn(1 + cfg.max_iterations)

    start_policy, logits = resolve_prior(env, cfg.prior)

    trained = None  # (flow, the network trained on it)

    def step(k: int, eta: float | None, mu: MeanField, _pi):
        nonlocal trained
        train_ss, sim_ss, eval_ss = iter_ss[k].spawn(3)
        if trained is None or trained[0] is not mu:
            trained = mu, dqn_train(env, mu, hp, seed=seed_int(train_ss))
        net = trained[1]
        if tabular:
            policy = Policy(dp.policy_rows(network_q_table(net, env), eta, logits))
            report = exploitability_exact(env, policy)
            mu_next = simulate_mean_field(env, policy, replace(particles, seed=seed_int(sim_ss)))
            return policy, report, mu_next
        policy = NetworkPolicy(net, env, eta, logits)
        # The report's best response is trained on the policy's simulated
        # flow: exactly the next iteration's training problem.
        report = exploitability_stochastic(
            env,
            policy,
            particles,
            episodes=eval_episodes,
            rng_seed=seed_int(eval_ss),
            br_hyperparams=hp,
        )
        trained = report.meanfield, report.best_response_net
        return policy, report, report.meanfield

    mu = simulate_mean_field(env, start_policy, replace(particles, seed=seed_int(init_ss)))
    return fixed_point_loop(mu, step, cfg)
