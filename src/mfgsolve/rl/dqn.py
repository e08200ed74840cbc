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

The replay buffer stores what the game cannot derive, ``(t, code, action,
reward, next_code)``, and each transition's target value from the first update
that samples it until the slot is overwritten or the target network syncs: the
target network sees each transition about once per sync, not once per draw.

Training runs in float32: the network is cast once after initialisation and
the target network is a copy of it.  Every feature (one-hot entries, flags,
the integer time) is exact there.  Each update writes its gradient into one
flat vector allocated per training; each target sync is one ``copyto`` of the
flat parameters.  The trained network is returned in float32.
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
        for name in ("discount", "epsilon_start", "epsilon_end_fraction"):
            if getattr(self, name) > 1:
                raise ValueError(f"{name} must not exceed 1, got {getattr(self, name)!r}")
        if self.epsilon_end > self.epsilon_start:  # so epsilon_end <= 1 too
            raise ValueError("epsilon_end must not exceed epsilon_start")


def epsilon_at(step: int, total_steps: int, hp: DqnHyperparams) -> float:
    """Linear from start to end over the first ``epsilon_end_fraction`` of
    training, constant afterwards."""
    ramp = hp.epsilon_end_fraction * total_steps
    if step >= ramp:
        return hp.epsilon_end
    return hp.epsilon_start + (hp.epsilon_end - hp.epsilon_start) * step / ramp


class ReplayBuffer:
    """Fixed-capacity FIFO store of transitions ``(t, code, action, reward,
    next_code, target)`` with uniform sampling.  The game rebuilds network
    inputs from times and codes; ``t`` at the horizon's end is terminal.
    ``target`` is NaN until ``target_values`` sets it and after a sync."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.data = np.zeros(capacity, dtype=[
            ("t", np.int64), ("code", np.int64), ("action", np.int64),
            ("reward", np.float64), ("next_code", np.int64), ("target", np.float32),
        ])
        self._added = 0

    def __len__(self) -> int:
        return min(self._added, self.capacity)

    def add(self, t: int, code: int, action: int, reward: float, next_code: int) -> None:
        self.data[self._added % self.capacity] = (t, code, action, reward, next_code, np.nan)
        self._added += 1

    def sample(self, rng: np.random.Generator, batch_size: int):
        """The fields of a uniform batch, ``t`` to ``target``, then its slots."""
        slots = rng.integers(len(self), size=batch_size)
        return (*(self.data[f][slots] for f in self.data.dtype.names), slots)

    def target_values(self, slots: np.ndarray, net, env) -> np.ndarray:
        """Target values ``max_a net(observe(t + 1, next_code))`` of ``slots``;
        the unknown ones come from one forward over their distinct slots."""
        targets = self.data["target"]
        new = np.flatnonzero(np.bincount(slots[np.isnan(targets[slots])]))
        if len(new):
            obs = env.observe_codes(self.data["t"][new] + 1, self.data["next_code"][new])
            targets[new] = net.forward(obs).max(axis=1)
        return targets[slots]


def dqn_train(env, mu: MeanField, hp: DqnHyperparams, seed: int) -> DuelingQNetwork:
    """Train a dueling Q-network on the MDP of ``env`` frozen at the flow ``mu``.

    Raises ``TrainingDivergedError`` as soon as the loss goes non-finite, and
    at the end if the parameters have.
    """
    check_meanfield(env, mu)
    init_ss, run_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(run_ss)
    net = DuelingQNetwork(env.obs_dim, env.num_actions, hp.hidden_width, seed=init_ss)
    net = net.astype(np.float32)
    target_net = net.astype(np.float32)
    grads = np.empty_like(net.flat)
    opt = Adam(hp.learning_rate)
    buffer = ReplayBuffer(hp.replay_capacity)
    n, last = hp.batch_size, env.horizon - 1
    total_steps = hp.epochs * env.horizon
    step = 0
    for _ in range(hp.epochs):
        code = env.initial_codes(rng, 1)
        for t in range(env.horizon):
            if rng.random() < epsilon_at(step, total_steps, hp):
                action = int(rng.integers(env.num_actions))
            else:
                action = int(np.argmax(net.forward(env.observe_codes(t, code))[0]))
            nxt, reward = env.step_codes(rng, t, code, np.array([action]), mu.at(t))
            buffer.add(t, code[0], action, reward[0], nxt[0])
            if len(buffer) >= n:
                ts, codes, actions, rewards, _, _, slots = buffer.sample(rng, n)
                bootstrap = buffer.target_values(slots, target_net, env)
                targets = rewards + hp.discount * bootstrap * (ts < last)
                obs = env.observe_codes(ts, codes)
                loss, _ = net.loss_and_grad(obs, actions, targets, out=grads)
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
                buffer.data["target"] = np.nan
            code = nxt
    if not np.isfinite(net.flat).all():
        raise TrainingDivergedError(f"non-finite parameters after {step} steps")
    return net
