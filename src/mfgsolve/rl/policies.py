"""Adapters that turn a trained Q-network into policies.

The network always reads the game's ``observe_codes`` rows.  The policy
objects answer ``action_probs(t, codes)`` for an array of state codes, which
the particle simulator and the rollout code consume directly on any game.
On tabular games the network's values can also be materialized into a dense
table at every (t, s) (the state space is enumerable there), so the learned
loop's softmax policy is a tabular ``Policy`` and its evaluation stays exact.
"""

from __future__ import annotations

import numpy as np

from .. import dp
from ..envs.base import EnvironmentSpec
from .network import DuelingQNetwork


def network_q_table(net: DuelingQNetwork, env: EnvironmentSpec) -> dp.QTable:
    """Evaluate the network at the observation of every (t, s)."""
    states = np.arange(env.num_states)
    obs = np.concatenate([env.observe_codes(t, states) for t in range(env.horizon)])
    q = net.forward(obs).reshape(env.horizon, env.num_states, env.num_actions)
    return dp.QTable(q)


class GreedyNetworkPolicy:
    """Argmax of network values (first index on ties), on any game."""

    def __init__(self, net: DuelingQNetwork, env):
        self.net = net
        self.env = env

    def _q(self, t: int, codes) -> np.ndarray:
        return self.net.forward(self.env.observe_codes(t, codes))

    def action_probs(self, t: int, codes) -> np.ndarray:
        q = self._q(t, codes)
        probs = np.zeros_like(q)
        probs[np.arange(q.shape[0]), q.argmax(axis=1)] = 1.0
        return probs


class BoltzmannNetworkPolicy(GreedyNetworkPolicy):
    """Softmax-with-prior over network values for sampled envs.

    ``prior_probs`` is one action distribution applied at every state (the
    uniform prior in the reference experiments).
    """

    def __init__(self, net: DuelingQNetwork, env, eta: float, prior_probs=None):
        super().__init__(net, env)
        self.eta = float(eta)
        if prior_probs is None:
            prior_probs = np.full(env.num_actions, 1.0 / env.num_actions)
        self.prior_probs = np.asarray(prior_probs, dtype=np.float64)
        if np.any(self.prior_probs <= 0.0):
            raise ValueError("prior must be strictly positive")

    def action_probs(self, t: int, codes) -> np.ndarray:
        q = self._q(t, codes)
        return dp.softmax_with_prior(q, self.eta, self.prior_probs)
