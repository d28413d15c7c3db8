"""First-order optimizers over named parameter dictionaries.

Updates are produced as name -> delta mappings so the model applies them
through its own ``apply_update`` contract; the optimizer never touches
parameter storage directly. State is keyed by parameter name; episodic
adaptation builds a fresh optimizer for each utterance.
"""

from __future__ import annotations

from typing import Mapping, Protocol

import numpy as np

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


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
    """Adam with beta1 0.9, beta2 0.999 and eps 1e-8."""

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        self.learning_rate = learning_rate
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        self._t += 1
        deltas: dict[str, np.ndarray] = {}
        bc1 = 1.0 - _BETA1**self._t
        bc2 = 1.0 - _BETA2**self._t
        for name, g in grads.items():
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(g)
                v = np.zeros_like(g)
            m = _BETA1 * m + (1.0 - _BETA1) * g
            v = _BETA2 * v + (1.0 - _BETA2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            m_hat = m / bc1
            v_hat = v / bc2
            deltas[name] = -self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
        return deltas


def build_optimizer(kind: str, learning_rate: float) -> Optimizer:
    if kind == "adam":
        return Adam(learning_rate)
    if kind == "sgd":
        return Sgd(learning_rate)
    raise ValueError(f"unknown optimizer {kind!r}")
