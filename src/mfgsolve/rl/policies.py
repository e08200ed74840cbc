"""Adapters that turn a trained Q-network into policies.

The network always reads the game's ``observe_codes`` rows.  A
``NetworkPolicy`` answers ``action_probs(t, codes)`` for an array of state
codes, which the particle simulator and the rollout code consume directly on
any game; its rows come from ``dp.policy_rows``, the one rule the tabular
policies use too, so greedy and softmax rows break ties and apply the prior
alike on tables and networks.  On tabular games the network's values can
also be materialized into a dense table at every (t, s) (the state space is
enumerable there), so the learned loop's policy is a tabular ``Policy`` and
its evaluation stays exact.
"""

from __future__ import annotations

import numpy as np

from .. import dp
from ..core import check_temperature
from ..envs.base import EnvironmentSpec
from .network import DuelingQNetwork


def network_q_table(net: DuelingQNetwork, env: EnvironmentSpec) -> np.ndarray:
    """The float64 (T, S, A) table of network values at the observation of
    every (t, s)."""
    states = np.arange(env.num_states)
    obs = np.concatenate([env.observe_codes(t, states) for t in range(env.horizon)])
    q = net.forward(obs).reshape(env.horizon, env.num_states, env.num_actions)
    return q.astype(np.float64)


class NetworkPolicy:
    """``dp.policy_rows`` of the network's values, on any game: greedy when
    ``eta`` is None, else the softmax at ``eta`` with the prior ``logits``
    (one (A,) row applied at every state; None for the uniform prior).  Each
    call runs the network once per distinct code."""

    def __init__(self, net: DuelingQNetwork, env, eta: float | None = None, logits=None):
        self.net = net
        self.env = env
        self.eta = None if eta is None else check_temperature(eta)
        self.logits = logits

    def action_probs(self, t: int, codes) -> np.ndarray:
        codes, inverse = np.unique(codes, return_inverse=True)
        q = self.net.forward(self.env.observe_codes(t, codes))
        return dp.policy_rows(q, self.eta, self.logits)[inverse]
