"""The tape: reverse-mode autodiff over float64 matrices and stacks of them, numpy-backed.

Every node is a matrix (scalars are 1x1) or a stack of equal-shape matrices
along leading axes, (..., r, c).  The tape only records: api.py computes
each node's value and pushes it with its operands and a reference to its
backward rule, a module-level function written beside the forward
expression.  The record order is the topological order; backward walks it
once in reverse and calls each node's rule.

A rule returns each operand's gradient in the shape of the node's value.
Where numpy broadcast an operand to get there (a 1x1 scalar times a matrix,
a matrix against a stack), backward sums the gradient over the axes the
operand was broadcast along, as numpy's own broadcasting rules define them;
any other shape mismatch raises.
"""

from __future__ import annotations

import numpy as np


def as_matrix(value) -> np.ndarray:
    """value as a C-contiguous float64 matrix or stack (scalars 1x1, vectors one row)."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    return np.ascontiguousarray(arr)


# (gradient shape, operand shape) -> the axes _sum_to reduces, for pairs
# numpy can have broadcast; one IMM training step looks up hundreds
_SUM_AXES: dict[tuple, tuple] = {}


def _sum_to(g: np.ndarray, shape: tuple, i: int) -> np.ndarray:
    """g summed over the axes along which an operand of this shape (node i)
    was broadcast to g's shape; ValueError when it cannot have been."""
    key = (g.shape, shape)
    axes = _SUM_AXES.get(key)
    if axes is None:
        lead = g.ndim - len(shape)
        if lead < 0 or any(n != 1 and n != k for n, k in zip(shape, g.shape[lead:])):
            raise ValueError(f"gradient of shape {g.shape} for node {i} of shape {shape}")
        axes = _SUM_AXES[key] = tuple(range(lead)) + tuple(
            lead + d for d, n in enumerate(shape) if n != g.shape[lead + d])
    return np.add.reduce(g, axis=axes).reshape(shape)


def inv_lower(low: np.ndarray) -> np.ndarray:
    """L^-1 of a lower triangular L, or of each L of a stack.

    A stack, or a matrix of at most 32 rows, goes to numpy's batched LU
    inverse in one call.  A larger matrix is split in two by rows, and
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: two half-size
    inverses and two GEMMs, about a third of an LU inverse's flops.
    """
    n = low.shape[-1]
    if low.ndim > 2 or n <= 32:
        return np.linalg.inv(low)
    h = n // 2
    out = np.zeros_like(low)
    a = out[:h, :h] = inv_lower(low[:h, :h])
    c = out[h:, h:] = inv_lower(low[h:, h:])
    out[h:, :h] = -(c @ (low[h:, :h] @ a))
    return out


class PyTape:
    """Append-only record of matrix operations and their values.

    Node i is stored as values[i] and (back, a, b, aux): back is the rule
    back(g, values, i, a, b, aux) -> (gradient of a, gradient of b or None)
    over operand nodes a, b (-1 when absent), or None for a leaf or constant.
    An n-ary node has a tuple of operand nodes as a, and its rule returns
    one gradient per operand in place of a's.

    factors maps a symmetric positive definite node to its lower Cholesky
    factor L and L^-1, stored by the node's first cho_solve or logdet, so
    every later solve or log det on that node reuses them (api._factor).
    """

    def __init__(self):
        self.values: list[np.ndarray] = []  # node values, in record order
        self._nodes: list[tuple] = []  # (back, a, b, aux) per node
        self._grads: list[np.ndarray | None] | None = None
        self.factors: dict[int, tuple] = {}  # node index -> (L, L^-1)

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
            shape = vals[i].shape
            if g.shape != shape:
                g = _sum_to(g, shape, i)
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
            if a.__class__ is tuple:
                for k, gk in zip(a, ga):
                    acc(k, gk)
                continue
            acc(a, ga)
            if gb is not None:
                acc(b, gb)
        self._grads = grads
