"""Dueling fully connected Q-network with hand-written backprop, plus the
adaptive-moment optimizer and global gradient-norm clipping it trains with.

Architecture: one shared ReLU layer, then separate ReLU streams for the state
value and the action advantages, combined as ``value + adv - mean(adv)``.
Plain numpy in the parameters' dtype: a network is built in float64, and
``dqn_train`` casts its network to float32, about twice as fast at the
production shape.  Inputs are cast to the parameters' dtype, so float64
observations never upcast a float32 pass.  Gradients are exact, which the
test suite checks in float64 against central finite differences.
"""

from __future__ import annotations

import numpy as np

PARAM_NAMES = (
    "shared_w", "shared_b",
    "value_w1", "value_b1", "value_w2", "value_b2",
    "adv_w1", "adv_b1", "adv_w2", "adv_b2",
)


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int):
    # Uniform fan-in scaling for both weights and biases.
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=fan_out)
    return w, b


class DuelingQNetwork:
    """Maps observation batches to per-action value estimates."""

    def __init__(
        self,
        obs_dim: int,
        num_actions: int,
        hidden_width: int = 256,
        seed: int = 0,
    ):
        self.obs_dim = obs_dim
        self.num_actions = num_actions
        self.hidden_width = hidden_width
        rng = np.random.default_rng(seed)
        p = {}
        p["shared_w"], p["shared_b"] = _linear_init(rng, obs_dim, hidden_width)
        p["value_w1"], p["value_b1"] = _linear_init(rng, hidden_width, hidden_width)
        p["value_w2"], p["value_b2"] = _linear_init(rng, hidden_width, 1)
        p["adv_w1"], p["adv_b1"] = _linear_init(rng, hidden_width, hidden_width)
        p["adv_w2"], p["adv_b2"] = _linear_init(rng, hidden_width, num_actions)
        self.params = p

    # -- forward / backward -------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.params["shared_w"].dtype

    def forward(self, obs: np.ndarray) -> np.ndarray:
        q, _ = self._forward_cached(np.asarray(obs, dtype=self.dtype))
        return q

    def _forward_cached(self, obs: np.ndarray):
        p = self.params
        h = np.maximum(obs @ p["shared_w"] + p["shared_b"], 0.0)
        hv = np.maximum(h @ p["value_w1"] + p["value_b1"], 0.0)
        value = hv @ p["value_w2"] + p["value_b2"]
        ha = np.maximum(h @ p["adv_w1"] + p["adv_b1"], 0.0)
        adv = ha @ p["adv_w2"] + p["adv_b2"]
        q = value + adv - adv.mean(axis=1, keepdims=True)
        return q, (obs, h, hv, ha)

    def _backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        obs, h, hv, ha = cache
        p = self.params
        g = {}
        dvalue = dq.sum(axis=1, keepdims=True)
        dadv = dq - dq.sum(axis=1, keepdims=True) / self.num_actions
        g["adv_w2"] = ha.T @ dadv
        g["adv_b2"] = dadv.sum(axis=0)
        dha = (dadv @ p["adv_w2"].T) * (ha > 0.0)
        g["adv_w1"] = h.T @ dha
        g["adv_b1"] = dha.sum(axis=0)
        g["value_w2"] = hv.T @ dvalue
        g["value_b2"] = dvalue.sum(axis=0)
        dhv = (dvalue @ p["value_w2"].T) * (hv > 0.0)
        g["value_w1"] = h.T @ dhv
        g["value_b1"] = dhv.sum(axis=0)
        dh = (dha @ p["adv_w1"].T + dhv @ p["value_w1"].T) * (h > 0.0)
        g["shared_w"] = obs.T @ dh
        g["shared_b"] = dh.sum(axis=0)
        return g

    def loss_and_grad(
        self, obs: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ):
        """Mean squared TD error on the taken actions and its exact gradient."""
        q, cache = self._forward_cached(np.asarray(obs, dtype=self.dtype))
        n = q.shape[0]
        rows = np.arange(n)
        err = q[rows, actions] - np.asarray(targets, dtype=self.dtype)
        loss = float(np.mean(err**2))
        dq = np.zeros_like(q)
        dq[rows, actions] = 2.0 * err / n
        return loss, self._backward(cache, dq)

    # -- parameter plumbing --------------------------------------------------

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for k in PARAM_NAMES:
            self.params[k] = params[k].copy()


def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so the global L2 norm is at most ``max_norm``."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if total > max_norm > 0.0:
        scale = max_norm / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads, total


class Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        # Shared by all keys, grown on demand in the gradients' dtype.
        self._scratch = np.empty((2, 0))
        self._keep = np.empty(0, dtype=bool)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``params`` in place: ``m += (1 - beta1) * (g - m)``,
        ``v += (1 - beta2) * (g * g - v)`` and
        ``params -= lr * (m / b1c) / (sqrt(v / b2c) + eps)``, one operation at
        a time in scratch space of the gradients' dtype, without temporaries.

        Then every moment below the dtype's smallest normal number is set to
        0.  A coordinate whose gradient stays 0 (an input that is never on, a
        dead ReLU) would otherwise decay into subnormal floats and stay stuck
        at the smallest one, and arithmetic on subnormals is many times
        slower.  The update such a moment makes is below lr * tiny / eps,
        far below the ulp of any parameter.  The flush multiplies by a bool
        mask, which is much cheaper than boolean-index assignment.
        """
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        size = max(g.size for g in grads.values())
        dtype = next(iter(grads.values())).dtype
        if self._scratch.shape[1] < size or self._scratch.dtype != dtype:
            self._scratch = np.empty((2, size), dtype=dtype)
            self._keep = np.empty(size, dtype=bool)
        tiny = np.finfo(dtype).tiny
        for k, g in grads.items():
            if k not in self._m:
                self._m[k], self._v[k] = np.zeros_like(g), np.zeros_like(g)
            m, v = self._m[k], self._v[k]
            num, den = (row[: g.size].reshape(g.shape) for row in self._scratch)
            keep = self._keep[: g.size].reshape(g.shape)
            np.subtract(g, m, out=num)
            num *= 1.0 - self.beta1
            m += num
            np.multiply(g, g, out=num)
            num -= v
            num *= 1.0 - self.beta2
            v += num
            np.divide(m, b1c, out=num)
            num *= self.lr
            np.divide(v, b2c, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            num /= den
            params[k] -= num
            np.abs(m, out=num)
            np.greater_equal(num, tiny, out=keep)
            m *= keep
            np.greater_equal(v, tiny, out=keep)
            v *= keep
