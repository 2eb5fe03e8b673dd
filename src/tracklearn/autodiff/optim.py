"""Gradient-step optimizers and the one descent loop the tape-trained models share."""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericsError
from .api import backward, scalar


def clip_by_global_norm(grads: dict, max_norm: float) -> dict:
    """Scale a gradient dict so its global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


def minimize(record, params, update, steps: int):
    """Descend for steps steps from params.

    record(params) records the loss on a fresh tape and returns (1x1 loss Var,
    {name: leaf Var}); update(params, {name: leaf gradient}) returns the next
    params.  A non-finite loss or a NumericsError in record or backward stops
    the descent, which then returns the last params whose loss was finite
    (params itself if none was).
    Returns (params, history, stopped): history rows are (step, loss), and
    stopped is None after every step ran, else {"step", "reason"}.
    """
    good = params
    history = []
    for step in range(steps):
        try:
            loss, leaves = record(params)
            value = scalar(loss)
            if not np.isfinite(value):
                raise NumericsError(f"non-finite loss {value}")
            backward(loss)
        except NumericsError as exc:
            return good, history, {"step": step, "reason": str(exc)}
        good = params
        history.append((step, value))
        params = update(params, {name: leaf.grad for name, leaf in leaves.items()})
    return params, history, None


class GradientOptimizer:
    """Adam.

    Parameters and gradients travel as {name: ndarray} dicts; moment state is
    kept per name.  A gradient may come in any shape of its parameter's size
    (a tape leaf is 2-D).
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moment decays and epsilon of Kingma & Ba

    def __init__(self, lr: float):
        self.lr = lr
        self.step_count = 0
        self._m: dict = {}
        self._v: dict = {}

    def step(self, params: dict, grads: dict) -> dict:
        self.step_count += 1
        out = {}
        for name, theta in params.items():
            g = grads[name].reshape(theta.shape)
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(theta)
                v = np.zeros_like(theta)
            m = self.BETA1 * m + (1.0 - self.BETA1) * g
            v = self.BETA2 * v + (1.0 - self.BETA2) * g * g
            self._m[name] = m
            self._v[name] = v
            m_hat = m / (1.0 - self.BETA1**self.step_count)
            v_hat = v / (1.0 - self.BETA2**self.step_count)
            out[name] = theta - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
        return out
