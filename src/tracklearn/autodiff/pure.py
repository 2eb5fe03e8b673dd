"""The tape: reverse-mode autodiff over 2-D float64 arrays, numpy-backed.

Every node is a matrix (scalars are 1x1).  The record order is the
topological order; backward walks it once in reverse.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve as _cho_solve
from scipy.linalg import solve_triangular

from ..errors import NumericsError

# opcodes: one per recorded operation
LEAF = 0
CONST = 1
ADD = 2
SUB = 3
NEG = 4
MUL = 5
DIV = 6
SMUL = 7   # (1x1 scalar, matrix)
SDIV = 8   # (matrix, 1x1 scalar)
ADDC = 9   # matrix + float constant
MULC = 10  # matrix * float constant
EXP = 11
LOG = 12
TANH = 13
SIGMOID = 14
SQRT = 15
SIN = 16
COS = 17
ABS = 18
ATAN2 = 19
MATMUL = 20
TRANSPOSE = 21
SUM = 22
SLICE = 23       # aux = (r0, r1, c0, c1)
EMBED = 24       # aux = (rows, cols, r0, c0)
SCALE_TMPL = 25  # aux = template ndarray
CHO_SOLVE = 26   # aux = [L, Y] cached at forward time
LOGDET = 27      # aux = [L]


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError(f"tape values are 2-D, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class PyTape:
    """Append-only record of matrix operations and their values."""

    def __init__(self):
        self._vals: list[np.ndarray] = []
        self._ops: list[tuple[int, int, int, object]] = []
        self._grads: list[np.ndarray | None] | None = None

    # -- recording ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._vals)

    def _push(self, opcode: int, a: int, b: int, aux, value: np.ndarray) -> int:
        if self._grads is not None:
            raise RuntimeError("tape already ran backward; record on a fresh tape")
        self._vals.append(value)
        self._ops.append((opcode, a, b, aux))
        return len(self._vals) - 1

    def value(self, i: int) -> np.ndarray:
        return self._vals[i]

    def grad(self, i: int) -> np.ndarray:
        if self._grads is None:
            raise RuntimeError("backward has not run")
        g = self._grads[i]
        return g if g is not None else np.zeros_like(self._vals[i])

    # -- node constructors ---------------------------------------------------

    def leaf(self, value) -> int:
        return self._push(LEAF, -1, -1, None, _as_matrix(value).copy())

    def const(self, value) -> int:
        return self._push(CONST, -1, -1, None, _as_matrix(value).copy())

    def add(self, a: int, b: int) -> int:
        return self._push(ADD, a, b, None, self._vals[a] + self._vals[b])

    def sub(self, a: int, b: int) -> int:
        return self._push(SUB, a, b, None, self._vals[a] - self._vals[b])

    def neg(self, a: int) -> int:
        return self._push(NEG, a, -1, None, -self._vals[a])

    def mul(self, a: int, b: int) -> int:
        return self._push(MUL, a, b, None, self._vals[a] * self._vals[b])

    def div(self, a: int, b: int) -> int:
        return self._push(DIV, a, b, None, self._vals[a] / self._vals[b])

    def smul(self, a: int, b: int) -> int:
        return self._push(SMUL, a, b, None, self._vals[a][0, 0] * self._vals[b])

    def sdiv(self, a: int, b: int) -> int:
        return self._push(SDIV, a, b, None, self._vals[a] / self._vals[b][0, 0])

    def addc(self, a: int, c: float) -> int:
        return self._push(ADDC, a, -1, float(c), self._vals[a] + c)

    def mulc(self, a: int, c: float) -> int:
        return self._push(MULC, a, -1, float(c), self._vals[a] * c)

    def exp(self, a: int) -> int:
        return self._push(EXP, a, -1, None, np.exp(self._vals[a]))

    def log(self, a: int) -> int:
        v = self._vals[a]
        if np.any(v <= 0.0):
            raise ValueError("log of non-positive value")
        return self._push(LOG, a, -1, None, np.log(v))

    def tanh(self, a: int) -> int:
        return self._push(TANH, a, -1, None, np.tanh(self._vals[a]))

    def sigmoid(self, a: int) -> int:
        v = self._vals[a]
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return self._push(SIGMOID, a, -1, None, out)

    def sqrt(self, a: int) -> int:
        v = self._vals[a]
        if np.any(v <= 0.0):
            raise ValueError("sqrt of non-positive value")
        return self._push(SQRT, a, -1, None, np.sqrt(v))

    def sin(self, a: int) -> int:
        return self._push(SIN, a, -1, None, np.sin(self._vals[a]))

    def cos(self, a: int) -> int:
        return self._push(COS, a, -1, None, np.cos(self._vals[a]))

    def absv(self, a: int) -> int:
        return self._push(ABS, a, -1, None, np.abs(self._vals[a]))

    def atan2(self, a: int, b: int) -> int:
        return self._push(ATAN2, a, b, None, np.arctan2(self._vals[a], self._vals[b]))

    def matmul(self, a: int, b: int) -> int:
        return self._push(MATMUL, a, b, None, self._vals[a] @ self._vals[b])

    def transpose(self, a: int) -> int:
        return self._push(TRANSPOSE, a, -1, None, np.ascontiguousarray(self._vals[a].T))

    def vsum(self, a: int) -> int:
        return self._push(SUM, a, -1, None, np.array([[self._vals[a].sum()]]))

    def slice(self, a: int, r0: int, r1: int, c0: int, c1: int) -> int:
        val = np.ascontiguousarray(self._vals[a][r0:r1, c0:c1])
        return self._push(SLICE, a, -1, (r0, r1, c0, c1), val)

    def embed(self, a: int, rows: int, cols: int, r0: int, c0: int) -> int:
        src = self._vals[a]
        val = np.zeros((rows, cols))
        val[r0 : r0 + src.shape[0], c0 : c0 + src.shape[1]] = src
        return self._push(EMBED, a, -1, (rows, cols, r0, c0), val)

    def scale_template(self, a: int, template) -> int:
        tmpl = _as_matrix(template).copy()
        return self._push(SCALE_TMPL, a, -1, tmpl, self._vals[a][0, 0] * tmpl)

    def cho_solve(self, a: int, b: int) -> int:
        try:
            low = np.linalg.cholesky(self._vals[a])
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"matrix is not positive definite: {exc}") from exc
        sol = _cho_solve((low, True), self._vals[b])
        return self._push(CHO_SOLVE, a, b, [low, sol], sol)

    def logdet(self, a: int) -> int:
        try:
            low = np.linalg.cholesky(self._vals[a])
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"matrix is not positive definite: {exc}") from exc
        val = 2.0 * np.sum(np.log(np.diag(low)))
        return self._push(LOGDET, a, -1, [low], np.array([[val]]))

    # -- backward ------------------------------------------------------------

    def backward(self, root: int) -> None:
        if self._grads is not None:
            raise RuntimeError("backward already ran on this tape")
        if self._vals[root].shape != (1, 1):
            raise ValueError("backward root must be a 1x1 scalar")
        grads: list[np.ndarray | None] = [None] * len(self._vals)
        grads[root] = np.ones((1, 1))
        vals = self._vals

        def acc(i: int, g):
            if grads[i] is None:
                grads[i] = np.zeros_like(vals[i])
            grads[i] += g

        for i in range(root, -1, -1):
            g = grads[i]
            if g is None:
                continue
            opcode, a, b, aux = self._ops[i]
            if opcode in (LEAF, CONST):
                continue
            elif opcode == ADD:
                acc(a, g)
                acc(b, g)
            elif opcode == SUB:
                acc(a, g)
                acc(b, -g)
            elif opcode == NEG:
                acc(a, -g)
            elif opcode == MUL:
                acc(a, g * vals[b])
                acc(b, g * vals[a])
            elif opcode == DIV:
                acc(a, g / vals[b])
                acc(b, -g * vals[i] / vals[b])
            elif opcode == SMUL:
                acc(a, np.array([[np.sum(g * vals[b])]]))
                acc(b, vals[a][0, 0] * g)
            elif opcode == SDIV:
                s = vals[b][0, 0]
                acc(a, g / s)
                acc(b, np.array([[-np.sum(g * vals[i]) / s]]))
            elif opcode == ADDC:
                acc(a, g)
            elif opcode == MULC:
                acc(a, g * aux)
            elif opcode == EXP:
                acc(a, g * vals[i])
            elif opcode == LOG:
                acc(a, g / vals[a])
            elif opcode == TANH:
                acc(a, g * (1.0 - vals[i] ** 2))
            elif opcode == SIGMOID:
                acc(a, g * vals[i] * (1.0 - vals[i]))
            elif opcode == SQRT:
                acc(a, g * 0.5 / vals[i])
            elif opcode == SIN:
                acc(a, g * np.cos(vals[a]))
            elif opcode == COS:
                acc(a, -g * np.sin(vals[a]))
            elif opcode == ABS:
                acc(a, g * np.sign(vals[a]))
            elif opcode == ATAN2:
                denom = vals[a] ** 2 + vals[b] ** 2
                acc(a, g * vals[b] / denom)
                acc(b, -g * vals[a] / denom)
            elif opcode == MATMUL:
                acc(a, g @ vals[b].T)
                acc(b, vals[a].T @ g)
            elif opcode == TRANSPOSE:
                acc(a, np.ascontiguousarray(g.T))
            elif opcode == SUM:
                acc(a, np.full_like(vals[a], g[0, 0]))
            elif opcode == SLICE:
                r0, r1, c0, c1 = aux
                ga = np.zeros_like(vals[a])
                ga[r0:r1, c0:c1] = g
                acc(a, ga)
            elif opcode == EMBED:
                _, _, r0, c0 = aux
                ra, ca = vals[a].shape
                acc(a, np.ascontiguousarray(g[r0 : r0 + ra, c0 : c0 + ca]))
            elif opcode == SCALE_TMPL:
                acc(a, np.array([[np.sum(g * aux)]]))
            elif opcode == CHO_SOLVE:
                low, sol = aux
                gb = _cho_solve((low, True), g)
                acc(b, gb)
                acc(a, -gb @ sol.T)
            elif opcode == LOGDET:
                (low,) = aux
                n = low.shape[0]
                inv_low = solve_triangular(low, np.eye(n), lower=True)
                acc(a, g[0, 0] * (inv_low.T @ inv_low))
            else:
                raise AssertionError(f"unhandled opcode {opcode}")
        self._grads = grads
