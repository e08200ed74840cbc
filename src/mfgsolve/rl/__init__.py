from .dqn import DqnHyperparams, ReplayBuffer, dqn_train, epsilon_at
from .loop import boltzmann_dqn_iteration
from .network import Adam, DuelingQNetwork, clip_gradients
from .policies import NetworkPolicy, network_q_table

__all__ = [
    "DqnHyperparams",
    "ReplayBuffer",
    "dqn_train",
    "epsilon_at",
    "boltzmann_dqn_iteration",
    "Adam",
    "DuelingQNetwork",
    "clip_gradients",
    "NetworkPolicy",
    "network_q_table",
]
