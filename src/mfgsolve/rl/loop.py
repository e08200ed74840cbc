"""Softmax fixed-point iteration with learned action values and simulated
population flows (the large-scale counterpart of the tabular solvers).

Per iteration: train a Q-network on the MDP frozen at the current flow, take
the softmax-with-prior policy of its values, simulate the next flow with
particles.  On tabular environments the network is collapsed to a dense table
so the policy and the exploitability stay exact; on sampled environments
(taxi) both the policy and the evaluation are stochastic, and the stochastic
exploitability's simulated flow and best-response network, trained on that
very flow, become the next iteration's flow and network.  A sampled run of K
iterations thus trains K + 1 networks and simulates K + 1 flows.
"""

from __future__ import annotations

import time

import numpy as np

from .. import dp
from ..core import Policy, flow_distance
from ..envs.base import EnvironmentSpec
from ..errors import ConfigError
from ..exploitability import exploitability_exact, exploitability_stochastic
from ..sim import FixedActionPolicy, ParticleConfig, simulate_mean_field
from ..solvers import IterationLog, IterationRecord
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
) -> IterationLog:
    """Run the learned softmax fixed-point loop and log exploitability.

    ``eta=0`` selects greedy policies over the network values (the
    temperature-zero reference point).  ``prior`` is a tabular Policy for
    tabular environments or a single action distribution for sampled ones
    (default uniform in both cases).

    Only the plain Bellman recursion with softmax policies is offered here,
    not the entropy-regularized ('relent') value fitting: exponentiating
    approximated action values inside the smooth-maximum recursion fails
    quickly in floating point.  Tabular 'relent' solving is unaffected.
    """
    if iterations < 1:
        raise ConfigError("iterations must be >= 1")
    if eta < 0.0:
        raise ConfigError("eta must be >= 0 (0 means greedy)")
    hp = hp or DqnHyperparams()
    tabular = isinstance(env, EnvironmentSpec)
    seeds = np.random.SeedSequence(seed)
    init_ss, *iter_ss = seeds.spawn(1 + iterations)

    if tabular:
        prior_policy = prior if prior is not None else Policy.uniform(
            env.horizon, env.num_states, env.num_actions
        )
        prior_policy.require_positive()
        sample_policy_0 = prior_policy
    else:
        sample_policy_0 = FixedActionPolicy(env.num_actions, prior)
        probs = sample_policy_0.probs
        if np.any(probs <= 0.0):
            raise ConfigError("prior must be strictly positive")

    mu = simulate_mean_field(
        env,
        sample_policy_0,
        ParticleConfig(particles.num_meanfields, particles.num_particles, _seed_int(init_ss)),
    )
    records: list[IterationRecord] = []
    history = [mu.per_time]
    policy = None
    for k in range(iterations):
        start = time.perf_counter()
        train_ss, sim_ss, eval_ss = iter_ss[k].spawn(3)
        if tabular or k == 0:
            net = dqn_train(env, mu, hp, seed=_seed_int(train_ss))
        if tabular:
            qtab = network_q_table(net, env)
            if eta > 0.0:
                policy = dp.boltzmann_policy(qtab, eta, prior_policy)
            else:
                policy = dp.greedy_policy(qtab, "first_optimal")
            expl, std_error = exploitability_exact(env, policy).value, None
            mu_next = simulate_mean_field(
                env,
                policy,
                ParticleConfig(
                    particles.num_meanfields, particles.num_particles, _seed_int(sim_ss)
                ),
            )
        else:
            if eta > 0.0:
                policy = BoltzmannNetworkPolicy(net, env, eta, probs)
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
            expl, std_error = report.value, report.std_error
            mu_next, net = report.meanfield, report.best_response_net
        dist = flow_distance(mu_next.per_time, mu.per_time)
        records.append(
            IterationRecord(
                index=k,
                exploitability=expl,
                mf_distance_prev=dist,
                mf_distance_final=np.nan,
                eta=eta,
                elapsed_s=time.perf_counter() - start,
                std_error=std_error,
            )
        )
        history.append(mu_next.per_time)
        mu = mu_next
    final = history[-1]
    for i, rec in enumerate(records):
        rec.mf_distance_final = flow_distance(history[i + 1], final)
    return IterationLog(
        records=records,
        final_policy=policy,
        final_meanfield=mu,
        converged=False,
        limit_cycle_period=None,
        meanfield_history=history[-64:],
    )
