"""Var, the functional layer, and its array path.

Every function here computes its value with one numpy expression.  When an
operand is a Var, the value is recorded as a node on the operand's tape and
a Var is returned; when the operands are plain float64 arrays, the same
value is returned at once, with no tape.  The operand's type is the only
switch.  Var and ndarray share + - * / @ with the same values, so a model
written against this layer filters on arrays and trains on a tape.

Arrays may be stacks with a leading batch axis, (B, r, c): every function
acts on the last two axes and broadcasts a 2-D operand against a stack, as
JAX vmap does (Bradbury et al., 2018).
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericsError, row_prefix
from .pure import (
    ABS, ADD, ADDC, ATAN2, CHO_SOLVE, COS, DIV, EMBED, EXP, LOG, LOGDET, MATMUL, MUL, MULC,
    NEG, SCALE_TMPL, SDIV, SIGMOID, SIN, SLICE, SMUL, SQRT, SUB, SUM, TANH, TRANSPOSE,
    PyTape, as_matrix, potrs,
)


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

    def _push(self, opcode: int, b: int, aux, value: np.ndarray) -> "Var":
        return Var(self.tape, self.tape.push(opcode, self.i, b, aux, value))

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
            return self._push(ADDC, -1, c, vals[self.i] + c)
        other = self._coerce(other)
        return self._push(ADD, other.i, None, vals[self.i] + vals[other.i])

    __radd__ = __add__

    def __sub__(self, other):
        vals = self.tape.values
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(ADDC, -1, -c, vals[self.i] - c)
        other = self._coerce(other)
        return self._push(SUB, other.i, None, vals[self.i] - vals[other.i])

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return (-self)._push(ADDC, -1, c, c - self.value)
        return NotImplemented

    def __neg__(self):
        return self._push(NEG, -1, None, -self.value)

    def __mul__(self, other):
        vals = self.tape.values
        a = vals[self.i]
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(MULC, -1, c, a * c)
        other = self._coerce(other)
        b = vals[other.i]
        if a.shape == b.shape:
            return self._push(MUL, other.i, None, a * b)
        if a.shape == (1, 1):
            return self._push(SMUL, other.i, None, a * b)
        if b.shape == (1, 1):
            return other._push(SMUL, self.i, None, a * b)
        raise ValueError(f"shape mismatch in mul: {a.shape} vs {b.shape}")

    __rmul__ = __mul__

    def __truediv__(self, other):
        vals = self.tape.values
        a = vals[self.i]
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(MULC, -1, 1.0 / c, a / c)
        other = self._coerce(other)
        b = vals[other.i]
        if a.shape == b.shape:
            return self._push(DIV, other.i, None, a / b)
        if b.shape == (1, 1):
            return self._push(SDIV, other.i, None, a / b)
        raise ValueError(f"shape mismatch in div: {a.shape} vs {b.shape}")

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            num = self.tape.const(np.full_like(self.value, c))
            return Var(self.tape, self.tape.push(DIV, num, self.i, None, c / self.value))
        return NotImplemented

    def __matmul__(self, other):
        other = self._coerce(other)
        vals = self.tape.values
        return self._push(MATMUL, other.i, None, vals[self.i] @ vals[other.i])


def make_tape() -> PyTape:
    """New empty tape."""
    return PyTape()


def var(tape, value) -> Var:
    """New differentiable leaf."""
    return Var(tape, tape.leaf(value))


def const(tape, value) -> Var:
    """New constant node (no gradient accumulated into it)."""
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


def _record(x, opcode: int, aux, value: np.ndarray, other=None):
    """value as a node on x's tape when x is a Var (other, if given, is the
    second operand); value itself when the operands are arrays."""
    if isinstance(x, Var):
        return x._push(opcode, -1 if other is None else x._coerce(other).i, aux, value)
    if isinstance(other, Var):
        raise TypeError("cannot mix a Var with an array operand")
    return value


# -- forward expressions --------------------------------------------------------


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


def _unary(opcode: int, forward):
    def fn(v):
        if isinstance(v, Var):
            return v._push(opcode, -1, None, forward(v.tape.values[v.i]))
        return forward(v)

    return fn


exp = _unary(EXP, np.exp)
log = _unary(LOG, _log)
tanh = _unary(TANH, np.tanh)
sigmoid = _unary(SIGMOID, _logistic)
sqrt = _unary(SQRT, _sqrt)
sin = _unary(SIN, np.sin)
cos = _unary(COS, np.cos)
absval = _unary(ABS, np.abs)
transpose = _unary(TRANSPOSE, _transpose)
vsum = _unary(SUM, _vsum)


def atan2(a, b):
    return _record(a, ATAN2, None, np.arctan2(value_of(a), value_of(b)), b)


def cho_solve(spd, rhs):
    """Solve spd @ X = rhs for symmetric positive definite spd (one Cholesky
    factor per tape node, shared with logdet)."""
    rhs_v = value_of(rhs)
    low = _factor(spd, rhs_v)
    sol = potrs(low, rhs_v)
    return _record(spd, CHO_SOLVE, [low, sol], sol, rhs)


def logdet(spd):
    """log det of a symmetric positive definite matrix, via its Cholesky factor
    (shared with cho_solve on a tape)."""
    low = _factor(spd)
    log_diag = np.log(np.diagonal(low, axis1=-2, axis2=-1))
    return _record(spd, LOGDET, [low], (2.0 * log_diag.sum(axis=-1))[..., None, None])


def block(v, r0: int, r1: int, c0: int, c1: int):
    return _record(v, SLICE, (r0, r1, c0, c1),
                   np.ascontiguousarray(value_of(v)[..., r0:r1, c0:c1]))


def cols(v, c0: int, c1: int):
    return block(v, 0, v.shape[-2], c0, c1)


def item(v, r: int, c: int):
    return block(v, r, r + 1, c, c + 1)


def scale_template(s, template):
    """1x1 s times a constant matrix template."""
    tmpl = as_matrix(template)
    return _record(s, SCALE_TMPL, tmpl, value_of(s) * tmpl)


def _embed(v, rows_n: int, cols_n: int, r0: int, c0: int):
    src = value_of(v)
    val = np.zeros(src.shape[:-2] + (rows_n, cols_n))
    val[..., r0 : r0 + src.shape[-2], c0 : c0 + src.shape[-1]] = src
    return _record(v, EMBED, (rows_n, cols_n, r0, c0), val)


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

