"""Q-learning with replay, a target network, and an epsilon-greedy schedule,
trained on the single-agent MDP induced by a frozen mean field.

The agent is stepped through the game's sampling interface with one agent
(``initial_codes``, ``step_codes`` at the frozen flow's row, and
``observe_codes`` for the network inputs), the same interface the particle
simulator uses, so tabular games and the taxi game train alike.

One environment step is followed by one minibatch descent step; updates start
once the buffer holds a full batch, the target network is synced on a fixed
step period, and terminal transitions (the last step of the finite horizon)
carry no bootstrap term.

Training runs in float32: the network is cast once after initialisation, the
target network is a copy of it, and the replay buffer stores observations in
float32 (one-hot entries, flags and the integer time, all exact there).  Each
update writes its gradient into one flat vector allocated per training; each
target sync is one ``copyto`` of the flat parameters.  The trained network is
returned in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..core import MeanField
from ..dp import check_meanfield
from ..errors import TrainingDivergedError, check_number
from .network import Adam, DuelingQNetwork, clip_gradients


@dataclass(frozen=True)
class DqnHyperparams:
    replay_capacity: int = 10000
    learning_rate: float = 0.0005
    discount: float = 0.99
    target_update_every: int = 500
    grad_clip_norm: float = 40.0
    batch_size: int = 128
    epsilon_start: float = 1.0
    epsilon_end: float = 0.02
    epsilon_end_fraction: float = 0.8
    epochs: int = 1000
    hidden_width: int = 256

    def __post_init__(self):
        for f in fields(self):  # all positive; integers where annotated int
            integer = f.type in (int, "int")
            check_number(f.name, getattr(self, f.name), 0, integer=integer, strict=True)
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")


def epsilon_at(step: int, total_steps: int, hp: DqnHyperparams) -> float:
    """Linear from start to end over the first ``epsilon_end_fraction`` of
    training, constant afterwards."""
    ramp = hp.epsilon_end_fraction * total_steps
    if step >= ramp:
        return hp.epsilon_end
    return hp.epsilon_start + (hp.epsilon_end - hp.epsilon_start) * step / ramp


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim), dtype=np.float32)
        self.terminals = np.zeros(capacity)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, action: int, reward: float, next_obs, terminal: bool) -> None:
        i = self._next
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.terminals[i] = float(terminal)
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int):
        idx = rng.integers(self._size, size=batch_size)
        return (
            self.obs[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_obs[idx],
            self.terminals[idx],
        )


def dqn_train(env, mu: MeanField, hp: DqnHyperparams, seed: int) -> DuelingQNetwork:
    """Train a dueling Q-network on the MDP of ``env`` frozen at the flow ``mu``.

    Raises ``TrainingDivergedError`` as soon as the loss or parameters go
    non-finite.
    """
    check_meanfield(env, mu)
    init_ss, run_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(run_ss)
    net = DuelingQNetwork(env.obs_dim, env.num_actions, hp.hidden_width, seed=init_ss)
    net = net.astype(np.float32)
    target_net = net.astype(np.float32)
    grads = np.empty_like(net.flat)
    opt = Adam(hp.learning_rate)
    buffer = ReplayBuffer(hp.replay_capacity, env.obs_dim)
    total_steps = hp.epochs * env.horizon
    step = 0
    for _ in range(hp.epochs):
        code = env.initial_codes(rng, 1)
        obs = env.observe_codes(0, code)
        for t in range(env.horizon):
            if rng.random() < epsilon_at(step, total_steps, hp):
                action = int(rng.integers(env.num_actions))
            else:
                action = int(np.argmax(net.forward(obs)[0]))
            nxt, reward = env.step_codes(rng, t, code, np.array([action]), mu.at(t))
            next_obs = env.observe_codes(t + 1, nxt)
            buffer.add(obs[0], action, reward[0], next_obs[0], t == env.horizon - 1)
            if len(buffer) >= hp.batch_size:
                b_obs, b_act, b_rew, b_next, b_term = buffer.sample(rng, hp.batch_size)
                bootstrap = target_net.forward(b_next).max(axis=1)
                targets = b_rew + hp.discount * bootstrap * (1.0 - b_term)
                loss, _ = net.loss_and_grad(b_obs, b_act, targets, out=grads)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at step {step} "
                        f"(|targets| up to {np.abs(targets).max():g})"
                    )
                clip_gradients(grads, hp.grad_clip_norm)
                opt.step(net.flat, grads)
            step += 1
            if step % hp.target_update_every == 0:
                np.copyto(target_net.flat, net.flat)
            code, obs = nxt, next_obs
    return net
