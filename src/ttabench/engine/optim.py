"""First-order optimizers over named parameter dictionaries.

Updates are produced as name -> delta mappings so the model applies them
through its own ``apply_update`` contract; the optimizer never touches
parameter storage directly. State is keyed by parameter name; episodic
adaptation builds a fresh optimizer for each utterance.
"""

from __future__ import annotations

from typing import Mapping, Protocol

import numpy as np


class Optimizer(Protocol):
    def step(self, grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]: ...


class Sgd:
    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        self.learning_rate = learning_rate

    def step(self, grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {name: -self.learning_rate * g for name, g in grads.items()}


class Adam:
    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        self._t += 1
        deltas: dict[str, np.ndarray] = {}
        bc1 = 1.0 - self.beta1**self._t
        bc2 = 1.0 - self.beta2**self._t
        for name, g in grads.items():
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(g)
                v = np.zeros_like(g)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            m_hat = m / bc1
            v_hat = v / bc2
            deltas[name] = -self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
        return deltas


def build_optimizer(kind: str, learning_rate: float) -> Optimizer:
    if kind == "adam":
        return Adam(learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate)
    raise ValueError(f"unknown optimizer {kind!r}")
