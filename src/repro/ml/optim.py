"""The first-order optimizer of GCN training, over flat parameter dictionaries."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for key, g in grads.items():
            if self.weight_decay:
                g = g + self.weight_decay * params[key]
            m = self._m.get(key, np.zeros_like(g))
            v = self._v.get(key, np.zeros_like(g))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            self._m[key] = m
            self._v[key] = v
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
