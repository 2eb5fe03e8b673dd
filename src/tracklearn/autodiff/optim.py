"""Gradient-step optimizers for the tape-trained models."""

from __future__ import annotations

import math

import numpy as np


def clip_by_global_norm(grads: dict, max_norm: float) -> dict:
    """Scale a gradient dict so its global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


class GradientOptimizer:
    """Adam.

    Parameters and gradients travel as {name: ndarray} dicts; moment state is
    kept per name.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: dict = {}
        self._v: dict = {}

    def step(self, params: dict, grads: dict) -> dict:
        self.step_count += 1
        out = {}
        for name, theta in params.items():
            g = grads[name]
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(theta)
                v = np.zeros_like(theta)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - self.beta1**self.step_count)
            v_hat = v / (1.0 - self.beta2**self.step_count)
            out[name] = theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return out

