"""The tape: reverse-mode autodiff over 2-D float64 arrays, numpy-backed.

Every node is a matrix (scalars are 1x1).  The tape only records: api.py
computes each node's value and pushes it with its opcode and operands.  The
record order is the topological order; backward walks it once in reverse.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrs

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
CHO_SOLVE = 26   # aux = [L, Y]: spd's stored factor and the solution
LOGDET = 27      # aux = [L]: spd's stored factor


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

    factors maps a symmetric positive definite node to its lower Cholesky
    factor, stored by the node's first cho_solve or logdet, so every later
    solve or log det on that node reuses it (api._factor).
    """

    def __init__(self):
        self.values: list[np.ndarray] = []  # node values, in record order
        self._ops: list[tuple[int, int, int, object]] = []
        self._grads: list[np.ndarray | None] | None = None
        self.factors: dict[int, np.ndarray] = {}  # node index -> lower factor

    def __len__(self) -> int:
        return len(self.values)

    def push(self, opcode: int, a: int, b: int, aux, value: np.ndarray) -> int:
        """Record one node: opcode over operand nodes a, b (-1 when absent)."""
        if self._grads is not None:
            raise RuntimeError("tape already ran backward; record on a fresh tape")
        self.values.append(value)
        self._ops.append((opcode, a, b, aux))
        return len(self.values) - 1

    def grad(self, i: int) -> np.ndarray:
        if self._grads is None:
            raise RuntimeError("backward has not run")
        g = self._grads[i]
        return g if g is not None else np.zeros_like(self.values[i])

    def leaf(self, value) -> int:
        return self.push(LEAF, -1, -1, None, as_matrix(value).copy())

    def const(self, value) -> int:
        return self.push(CONST, -1, -1, None, as_matrix(value).copy())

    # -- backward ------------------------------------------------------------

    def backward(self, root: int) -> None:
        if self._grads is not None:
            raise RuntimeError("backward already ran on this tape")
        if self.values[root].shape != (1, 1):
            raise ValueError("backward root must be a 1x1 scalar")
        grads: list[np.ndarray | None] = [None] * len(self.values)
        grads[root] = np.ones((1, 1))
        vals = self.values

        # a node's first gradient is stored as given and later ones are added
        # out of place: one g may be stored for two operands (ADD), so no stored
        # gradient is ever written in place
        def acc(i: int, g):
            if g.shape != vals[i].shape:
                raise ValueError(f"gradient of shape {g.shape} for node {i} of shape "
                                 f"{vals[i].shape}")
            grads[i] = g if grads[i] is None else grads[i] + g

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
                gb = potrs(low, g)
                acc(b, gb)
                acc(a, -gb @ sol.T)
            elif opcode == LOGDET:
                # d log det S = S^-1 = L^-T L^-1, with L^-1 by one triangular
                # solve: half the flops of an LU inverse, and the same bits at
                # any BLAS thread count (LAPACK's dtrtri and dpotri are not)
                low = aux[0]
                inv_low = dtrsm(1.0, low, np.eye(len(low)), lower=1)
                acc(a, g[0, 0] * (inv_low.T @ inv_low))
            else:
                raise AssertionError(f"unhandled opcode {opcode}")
        self._grads = grads
