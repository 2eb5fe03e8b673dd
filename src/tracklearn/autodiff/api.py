"""Var, the functional layer, and its array path.

Every function here computes its value with one numpy expression.  When an
operand is a Var, the value is recorded as a node on the operand's tape and
a Var is returned; when the operands are plain float64 arrays, the same
value is returned at once, with no tape.  The operand's type is the only
switch.  Var and ndarray share + - * / @ with the same values, so a model
written against this layer filters on arrays and trains on a tape.

Each node carries its backward rule (its signature is in PyTape's docstring),
a module-level function written beside the forward expression.

Arrays may be stacks with a leading batch axis, (B, r, c): every function
acts on the last two axes and broadcasts a 2-D operand against a stack, as
JAX vmap does (Bradbury et al., 2018).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm

from ..errors import NumericsError, row_prefix
from .pure import PyTape, as_matrix, potrs


# the rules of Var's operators
def _add_back(g, vals, i, a, b, aux): return g, g
def _sub_back(g, vals, i, a, b, aux): return g, -g
def _neg_back(g, vals, i, a, b, aux): return -g, None
def _addc_back(g, vals, i, a, b, aux): return g, None
def _mulc_back(g, vals, i, a, b, aux): return g * aux, None
def _mul_back(g, vals, i, a, b, aux): return g * vals[b], g * vals[a]
def _div_back(g, vals, i, a, b, aux): return g / vals[b], -g * vals[i] / vals[b]
def _matmul_back(g, vals, i, a, b, aux): return g @ vals[b].T, vals[a].T @ g


def _smul_back(g, vals, i, a, b, aux):  # a: 1x1 scalar, b: matrix
    return np.array([[np.sum(g * vals[b])]]), vals[a][0, 0] * g


def _sdiv_back(g, vals, i, a, b, aux):  # a: matrix, b: 1x1 scalar
    s = vals[b][0, 0]
    return g / s, np.array([[-np.sum(g * vals[i]) / s]])


class Var:
    """Handle to one tape node.  Arithmetic operators record new nodes."""

    __slots__ = ("tape", "i")

    def __init__(self, tape, i: int):
        self.tape = tape
        self.i = i

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.i]

    @property
    def grad(self) -> np.ndarray:
        return self.tape.grad(self.i)

    @property
    def shape(self):
        return self.tape.values[self.i].shape

    def scalar(self) -> float:
        return float(self.tape.values[self.i][0, 0])

    @property
    def T(self) -> "Var":
        return transpose(self)

    def _push(self, value: np.ndarray, back, b: int = -1, aux=None) -> "Var":
        return Var(self.tape, self.tape.push(value, back, self.i, b, aux))

    def _coerce(self, other) -> "Var":
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise ValueError("operands live on different tapes")
            return other
        raise TypeError(f"expected Var or float, got {type(other)!r}")

    # the operators read node values straight from the tape's list: they run
    # for every node, so they skip the value property's call
    def __add__(self, other):
        vals = self.tape.values
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(vals[self.i] + c, _addc_back)
        other = self._coerce(other)
        return self._push(vals[self.i] + vals[other.i], _add_back, other.i)

    __radd__ = __add__

    def __sub__(self, other):
        vals = self.tape.values
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(vals[self.i] - c, _addc_back)
        other = self._coerce(other)
        return self._push(vals[self.i] - vals[other.i], _sub_back, other.i)

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return (-self)._push(c - self.value, _addc_back)
        return NotImplemented

    def __neg__(self):
        return self._push(-self.value, _neg_back)

    def __mul__(self, other):
        vals = self.tape.values
        a = vals[self.i]
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(a * c, _mulc_back, aux=c)
        other = self._coerce(other)
        b = vals[other.i]
        if a.shape == b.shape:
            return self._push(a * b, _mul_back, other.i)
        if a.shape == (1, 1):
            return self._push(a * b, _smul_back, other.i)
        if b.shape == (1, 1):
            return other._push(a * b, _smul_back, self.i)
        raise ValueError(f"shape mismatch in mul: {a.shape} vs {b.shape}")

    __rmul__ = __mul__

    def __truediv__(self, other):
        vals = self.tape.values
        a = vals[self.i]
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(a / c, _mulc_back, aux=1.0 / c)
        other = self._coerce(other)
        b = vals[other.i]
        if a.shape == b.shape:
            return self._push(a / b, _div_back, other.i)
        if b.shape == (1, 1):
            return self._push(a / b, _sdiv_back, other.i)
        raise ValueError(f"shape mismatch in div: {a.shape} vs {b.shape}")

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            num = self.tape.const(np.full_like(self.value, c))
            return Var(self.tape, self.tape.push(c / self.value, _div_back, num, self.i))
        return NotImplemented

    def __matmul__(self, other):
        other = self._coerce(other)
        vals = self.tape.values
        return self._push(vals[self.i] @ vals[other.i], _matmul_back, other.i)


def make_tape() -> PyTape:
    """New empty tape."""
    return PyTape()


def var(tape, value) -> Var:
    """New differentiable leaf."""
    return Var(tape, tape.leaf(value))


def const(tape, value) -> Var:
    """New constant node: backward stops at it, but still stores its gradient."""
    return Var(tape, tape.const(value))


def const_like(like, value):
    """value as a constant beside `like`: a constant node on like's tape when
    like is a Var, else the value itself as a matrix (or a stack of them)."""
    if isinstance(like, Var):
        return const(like.tape, value)
    arr = np.asarray(value, dtype=np.float64)
    return np.ascontiguousarray(arr) if arr.ndim > 2 else as_matrix(arr)


def scalar(x) -> float:
    """The float held by a 1x1 Var or array."""
    return float(value_of(x)[0, 0])


def detach(x):
    """x's value off the tape: the float of a 1x1 Var, or the array itself."""
    return scalar(x) if isinstance(x, Var) else x


def value_of(x) -> np.ndarray:
    """The matrix held by a Var or array."""
    return x.tape.values[x.i] if isinstance(x, Var) else x


def _record(x, value: np.ndarray, back, aux=None, other=None):
    """value as a node on x's tape when x is a Var (other, if given, is the
    second operand); value itself when the operands are arrays."""
    if isinstance(x, Var):
        return x._push(value, back, -1 if other is None else x._coerce(other).i, aux)
    if isinstance(other, Var):
        raise TypeError("cannot mix a Var with an array operand")
    return value


def _log(v: np.ndarray) -> np.ndarray:
    if (v <= 0.0).any():
        raise ValueError("log of non-positive value")
    return np.log(v)


def _sqrt(v: np.ndarray) -> np.ndarray:
    if (v <= 0.0).any():
        raise ValueError("sqrt of non-positive value")
    return np.sqrt(v)


def _logistic(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def _transpose(v: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(v.swapaxes(-1, -2))


def _vsum(v: np.ndarray) -> np.ndarray:
    return v.sum(axis=(-2, -1), keepdims=True)


def _check_finite(*operands) -> None:
    bad = ~np.logical_and.reduce([np.isfinite(x).all(axis=(-2, -1)) for x in operands])
    if bad.any():
        raise NumericsError(f"{row_prefix(bad)}non-finite operand of a Cholesky solve")


def _cholesky(spd: np.ndarray, *operands) -> np.ndarray:
    """Lower Cholesky factor; NumericsError when an operand is not finite or
    spd is not positive definite."""
    _check_finite(spd, *operands)
    try:
        return np.linalg.cholesky(spd)
    except np.linalg.LinAlgError as exc:
        bad = np.zeros(spd.shape[:-2], dtype=bool)  # the first slice of a stack that fails
        for b in np.ndindex(bad.shape):
            try:
                np.linalg.cholesky(spd[b])
            except np.linalg.LinAlgError:
                bad[b] = True
                break
        raise NumericsError(f"{row_prefix(bad)}matrix is not positive definite: {exc}") from exc


def _factor(spd, *operands) -> np.ndarray:
    """_cholesky of spd's value.  A Var's factor is stored on its tape by the
    first call and returned by every later one, whose operands are still
    checked; an array has no node to key on and is factored each time."""
    if not isinstance(spd, Var):
        return _cholesky(spd, *operands)
    factors = spd.tape.factors
    low = factors.get(spd.i)
    if low is None:
        low = factors[spd.i] = _cholesky(spd.tape.values[spd.i], *operands)
    else:
        _check_finite(*operands)
    return low


def _unary(forward, grad):
    """forward as a tape function whose rule is grad(g, x, y), y = forward(x)."""
    def back(g, vals, i, a, b, aux):
        return grad(g, vals[a], vals[i]), None

    def fn(v):
        if isinstance(v, Var):
            return v._push(forward(v.tape.values[v.i]), back)
        return forward(v)

    return fn


exp = _unary(np.exp, lambda g, x, y: g * y)
log = _unary(_log, lambda g, x, y: g / x)
tanh = _unary(np.tanh, lambda g, x, y: g * (1.0 - y ** 2))
sigmoid = _unary(_logistic, lambda g, x, y: g * y * (1.0 - y))
sqrt = _unary(_sqrt, lambda g, x, y: g * 0.5 / y)
sin = _unary(np.sin, lambda g, x, y: g * np.cos(x))
cos = _unary(np.cos, lambda g, x, y: -g * np.sin(x))
absval = _unary(np.abs, lambda g, x, y: g * np.sign(x))
transpose = _unary(_transpose, lambda g, x, y: np.ascontiguousarray(g.T))
vsum = _unary(_vsum, lambda g, x, y: np.full_like(x, g[0, 0]))


def _atan2_back(g, vals, i, a, b, aux):
    denom = vals[a] ** 2 + vals[b] ** 2
    return g * vals[b] / denom, -g * vals[a] / denom


def atan2(a, b):
    return _record(a, np.arctan2(value_of(a), value_of(b)), _atan2_back, other=b)


def _cho_solve_back(g, vals, i, rhs, spd, aux):
    low, sol = aux
    g_rhs = potrs(low, g)
    return g_rhs, -g_rhs @ sol.T


def cho_solve(spd, rhs):
    """Solve spd @ X = rhs for symmetric positive definite spd (one Cholesky
    factor per tape node, shared with logdet)."""
    rhs_v = value_of(rhs)
    low = _factor(spd, rhs_v)
    sol = potrs(low, rhs_v)
    return _record(rhs, sol, _cho_solve_back, (low, sol), spd)


def _logdet_back(g, vals, i, a, b, low):
    # d log det S = S^-1 = L^-T L^-1, with L^-1 by one triangular solve: half
    # the flops of an LU inverse, and the same bits at any BLAS thread count
    # (LAPACK's dtrtri and dpotri are not)
    inv_low = dtrsm(1.0, low, np.eye(len(low)), lower=1)
    return g[0, 0] * (inv_low.T @ inv_low), None


def logdet(spd):
    """log det of a symmetric positive definite matrix, via its Cholesky factor
    (shared with cho_solve on a tape)."""
    low = _factor(spd)
    log_diag = np.log(np.diagonal(low, axis1=-2, axis2=-1))
    return _record(spd, (2.0 * log_diag.sum(axis=-1))[..., None, None], _logdet_back, low)


def _block_back(g, vals, i, a, b, aux):
    r0, r1, c0, c1 = aux
    ga = np.zeros_like(vals[a])
    ga[r0:r1, c0:c1] = g
    return ga, None


def block(v, r0: int, r1: int, c0: int, c1: int):
    return _record(v, np.ascontiguousarray(value_of(v)[..., r0:r1, c0:c1]), _block_back,
                   (r0, r1, c0, c1))


def cols(v, c0: int, c1: int):
    return block(v, 0, v.shape[-2], c0, c1)


def item(v, r: int, c: int):
    return block(v, r, r + 1, c, c + 1)


def _scale_template_back(g, vals, i, a, b, tmpl):
    return np.array([[np.sum(g * tmpl)]]), None


def scale_template(s, template):
    """1x1 s times a constant matrix template."""
    tmpl = as_matrix(template)
    return _record(s, value_of(s) * tmpl, _scale_template_back, tmpl)


def _embed_back(g, vals, i, a, b, aux):
    r0, c0 = aux
    ra, ca = vals[a].shape
    return np.ascontiguousarray(g[r0 : r0 + ra, c0 : c0 + ca]), None


def _embed(v, rows_n: int, cols_n: int, r0: int, c0: int):
    src = value_of(v)
    val = np.zeros(src.shape[:-2] + (rows_n, cols_n))
    val[..., r0 : r0 + src.shape[-2], c0 : c0 + src.shape[-1]] = src
    return _record(v, val, _embed_back, (r0, c0))


def concat_rows(parts: list):
    rows_total = sum(p.shape[-2] for p in parts)
    cols_n = parts[0].shape[-1]
    out = None
    r = 0
    for p in parts:
        piece = _embed(p, rows_total, cols_n, r, 0)
        out = piece if out is None else out + piece
        r += p.shape[-2]
    return out


def logsumexp(terms: list):
    """Stable log(sum(exp(t))) over 1x1 terms; the max is detached, so the
    gradient is exact.  On stacks the max is taken per batch row."""
    values = [detach(t) for t in terms]
    m = max(values) if isinstance(terms[0], Var) else np.max(values, axis=0)
    acc = None
    for t in terms:
        e = exp(t + (-m))
        acc = e if acc is None else acc + e
    return log(acc) + m


def backward(root: Var) -> None:
    """Run reverse accumulation from a scalar root; fills .grad on all nodes."""
    root.tape.backward(root.i)

