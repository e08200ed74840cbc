"""Dueling fully connected Q-network with hand-written backprop, plus the
adaptive-moment optimizer and global gradient-norm clipping it trains with.

Architecture: one shared ReLU layer, then separate ReLU streams for the state
value and the action advantages, combined as ``value + adv - mean(adv)``.
The parameters live in one 1-D array, ``net.flat``, the network's only
state besides its layout.  ``net.params`` is derived from it on each access:
a read-only map from the ten names of ``PARAM_NAMES`` to views of ``flat``,
laid out in that order.  The gradient is one flat vector with the same views.
So the optimizer, the clipping, the dtype cast, the target-network sync and
pickling each act on one array.

Plain numpy in the parameters' dtype: a network is built in float64, and
``dqn_train`` casts its network to float32, about twice as fast at the
production shape.  Inputs are cast to the parameters' dtype, so float64
observations never upcast a float32 pass.  Gradients are exact, which the
test suite checks in float64 against central finite differences.
"""

from __future__ import annotations

import copy
import math
from itertools import accumulate
from types import MappingProxyType

import numpy as np

PARAM_NAMES = (
    "shared_w", "shared_b",
    "value_w1", "value_b1", "value_w2", "value_b2",
    "adv_w1", "adv_b1", "adv_w2", "adv_b2",
)


class DuelingQNetwork:
    """Maps observation batches to per-action value estimates."""

    def __init__(self, obs_dim: int, num_actions: int, hidden_width: int = 256, seed: int = 0):
        self.obs_dim = obs_dim
        self.num_actions = num_actions
        self.hidden_width = hidden_width
        layers = ((obs_dim, hidden_width), (hidden_width, hidden_width), (hidden_width, 1),
                  (hidden_width, hidden_width), (hidden_width, num_actions))
        shapes = [s for fan_in, fan_out in layers for s in ((fan_in, fan_out), (fan_out,))]
        sizes = [math.prod(s) for s in shapes]
        ends = list(accumulate(sizes))
        self._layout = list(zip(PARAM_NAMES, shapes, ends, sizes))
        self.flat = np.empty(ends[-1])
        p, rng = self.params, np.random.default_rng(seed)
        for w, b, (fan_in, fan_out) in zip(PARAM_NAMES[::2], PARAM_NAMES[1::2], layers):
            # Uniform fan-in scaling for both weights and biases.
            bound = 1.0 / np.sqrt(fan_in)
            p[w][...] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            p[b][...] = rng.uniform(-bound, bound, size=fan_out)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The ten blocks of a vector laid out like ``self.flat``."""
        return {name: flat[end - size : end].reshape(shape)
                for name, shape, end, size in self._layout}

    @property
    def params(self) -> MappingProxyType:
        """Read-only name -> view map of the current ``flat`` (a rebound
        name would leave the vector)."""
        return MappingProxyType(self._views(self.flat))

    def astype(self, dtype) -> DuelingQNetwork:
        """A copy of the network with its parameters cast to ``dtype``."""
        net = copy.copy(self)
        net.flat = self.flat.astype(dtype)
        return net

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def forward(self, obs: np.ndarray) -> np.ndarray:
        return self._forward_cached(np.asarray(obs, dtype=self.dtype))[0]

    def _forward_cached(self, obs: np.ndarray):
        p = self.params
        h = np.maximum(obs @ p["shared_w"] + p["shared_b"], 0.0)
        hv = np.maximum(h @ p["value_w1"] + p["value_b1"], 0.0)
        value = hv @ p["value_w2"] + p["value_b2"]
        ha = np.maximum(h @ p["adv_w1"] + p["adv_b1"], 0.0)
        adv = ha @ p["adv_w2"] + p["adv_b2"]
        q = value + adv - adv.sum(axis=1, keepdims=True) / self.num_actions
        return q, (p, obs, h, hv, ha)

    def _backward(self, cache, dq: np.ndarray, g: dict[str, np.ndarray]) -> None:
        """Write the gradient blocks into the views ``g``; ``cache`` holds
        the forward's parameter map and activations."""
        p, obs, h, hv, ha = cache
        dvalue = dq.sum(axis=1, keepdims=True)
        dadv = dq - dq.sum(axis=1, keepdims=True) / self.num_actions
        np.matmul(ha.T, dadv, out=g["adv_w2"])
        np.sum(dadv, axis=0, out=g["adv_b2"])
        dha = (dadv @ p["adv_w2"].T) * (ha > 0.0)
        np.matmul(h.T, dha, out=g["adv_w1"])
        np.sum(dha, axis=0, out=g["adv_b1"])
        np.matmul(hv.T, dvalue, out=g["value_w2"])
        np.sum(dvalue, axis=0, out=g["value_b2"])
        dhv = (dvalue * p["value_w2"].T) * (hv > 0.0)
        np.matmul(h.T, dhv, out=g["value_w1"])
        np.sum(dhv, axis=0, out=g["value_b1"])
        dh = (dha @ p["adv_w1"].T + dhv @ p["value_w1"].T) * (h > 0.0)
        np.matmul(obs.T, dh, out=g["shared_w"])
        np.sum(dh, axis=0, out=g["shared_b"])

    def loss_and_grad(
        self, obs: np.ndarray, actions: np.ndarray, targets: np.ndarray, out=None
    ):
        """Mean squared TD error on the taken actions and its exact gradient.

        The gradient is written into ``out``, a vector shaped and typed like
        ``self.flat`` (a fresh one if None), and returned as the dict of its
        views by layer name.
        """
        q, cache = self._forward_cached(np.asarray(obs, dtype=self.dtype))
        n = q.shape[0]
        rows = np.arange(n)
        err = q[rows, actions] - np.asarray(targets, dtype=self.dtype)
        loss = float((err * err).sum() / n)
        dq = np.zeros_like(q)
        dq[rows, actions] = 2.0 * err / n
        grads = self._views(np.empty_like(self.flat) if out is None else out)
        self._backward(cache, dq, grads)
        return loss, grads


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient ``grads`` in place so its L2 norm is at most
    ``max_norm``; return the norm before clipping."""
    total = math.sqrt(float(np.dot(grads, grads)))
    if total > max_norm > 0.0:
        grads *= max_norm / total
    return total


class Adam:
    """Adaptive-moment estimation with bias correction, on one flat vector."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        # Moments and scratch, allocated like the gradient at the first step.
        self._m = self._v = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the flat ``params`` in place: ``m += (1 - beta1) * (g - m)``,
        ``v += (1 - beta2) * (g * g - v)`` and
        ``params -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``, one operation at
        a time in scratch space of the gradient's dtype, without temporaries.

        Then every moment below the dtype's smallest normal number is set to
        0.  A coordinate whose gradient stays 0 (an input that is never on, a
        dead ReLU) would otherwise decay into subnormal floats and stay stuck
        at the smallest one, and arithmetic on subnormals is many times
        slower.  The update such a moment makes is below lr * tiny / eps,
        far below the ulp of any parameter.  The flush multiplies by a bool
        mask, which is much cheaper than boolean-index assignment.
        """
        if self._m is None:
            self._m, self._v, self._num, self._den = (np.zeros_like(grads) for _ in range(4))
            self._keep = np.zeros(grads.shape, dtype=bool)
        m, v, num, den, keep = self._m, self._v, self._num, self._den, self._keep
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        np.subtract(grads, m, out=num)
        num *= 1.0 - self.beta1
        m += num
        np.multiply(grads, grads, out=num)
        num -= v
        num *= 1.0 - self.beta2
        v += num
        np.divide(m, b1c, out=num)
        num *= self.lr
        np.divide(v, b2c, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        params -= num
        tiny = np.finfo(grads.dtype).tiny
        np.abs(m, out=num)
        np.greater_equal(num, tiny, out=keep)
        m *= keep
        np.greater_equal(v, tiny, out=keep)
        v *= keep
