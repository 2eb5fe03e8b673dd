"""The tape: reverse-mode autodiff over 2-D float64 arrays, numpy-backed.

Every node is a matrix (scalars are 1x1).  The tape only records: api.py
computes each node's value and pushes it with its operands and a reference
to its backward rule, a module-level function written beside the forward
expression.  The record order is the topological order; backward walks it
once in reverse and calls each node's rule.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrs

from ..errors import NumericsError


def as_matrix(value) -> np.ndarray:
    """value as a C-contiguous 2-D float64 array (scalars 1x1, vectors one row)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tape values are 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def potrs(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L' X = rhs given the lower Cholesky factor L (LAPACK dpotrs,
    without scipy.linalg.cho_solve's per-call validation); stacks slice by slice."""
    if low.ndim > 2:
        return np.stack([potrs(lo, r) for lo, r in zip(low, rhs)])
    sol, info = dpotrs(low, rhs, lower=1)
    if info != 0:
        raise NumericsError(f"dpotrs: illegal value in argument {-info}")
    return sol


class PyTape:
    """Append-only record of matrix operations and their values.

    Node i is stored as values[i] and (back, a, b, aux): back is the rule
    back(g, values, i, a, b, aux) -> (gradient of a, gradient of b or None)
    over operand nodes a, b (-1 when absent), or None for a leaf or constant.

    factors maps a symmetric positive definite node to its lower Cholesky
    factor, stored by the node's first cho_solve or logdet, so every later
    solve or log det on that node reuses it (api._factor).
    """

    def __init__(self):
        self.values: list[np.ndarray] = []  # node values, in record order
        self._nodes: list[tuple] = []  # (back, a, b, aux) per node
        self._grads: list[np.ndarray | None] | None = None
        self.factors: dict[int, np.ndarray] = {}  # node index -> lower factor

    def __len__(self) -> int:
        return len(self.values)

    def push(self, value: np.ndarray, back=None, a: int = -1, b: int = -1, aux=None) -> int:
        """Record one node: value, with rule back over operand nodes a, b."""
        if self._grads is not None:
            raise RuntimeError("tape already ran backward; record on a fresh tape")
        self.values.append(value)
        self._nodes.append((back, a, b, aux))
        return len(self.values) - 1

    def grad(self, i: int) -> np.ndarray:
        if self._grads is None:
            raise RuntimeError("backward has not run")
        g = self._grads[i]
        return g if g is not None else np.zeros_like(self.values[i])

    def leaf(self, value) -> int:
        """A rule-less node: backward stores its gradient and stops there."""
        return self.push(as_matrix(value).copy())

    const = leaf

    def backward(self, root: int) -> None:
        if self._grads is not None:
            raise RuntimeError("backward already ran on this tape")
        if self.values[root].shape != (1, 1):
            raise ValueError("backward root must be a 1x1 scalar")
        grads: list[np.ndarray | None] = [None] * len(self.values)
        grads[root] = np.ones((1, 1))
        vals = self.values

        # a node's first gradient is stored as given and later ones are added
        # out of place: a rule may return one g for both operands (add), so no
        # stored gradient is ever written in place
        def acc(i: int, g):
            if g.shape != vals[i].shape:
                raise ValueError(f"gradient of shape {g.shape} for node {i} of shape "
                                 f"{vals[i].shape}")
            grads[i] = g if grads[i] is None else grads[i] + g

        nodes = self._nodes
        for i in range(root, -1, -1):
            g = grads[i]
            if g is None:
                continue
            back, a, b, aux = nodes[i]
            if back is None:
                continue
            ga, gb = back(g, vals, i, a, b, aux)
            acc(a, ga)
            if gb is not None:
                acc(b, gb)
        self._grads = grads
