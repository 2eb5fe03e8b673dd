"""Var, the functional layer, and its array path.

Every function here computes its value with one numpy expression.  When an
operand is a Var, the value is recorded as a node on the operand's tape and
a Var is returned; when the operands are plain float64 arrays, the same
value is returned at once, with no tape.  The operand's type is the only
switch.  Var and ndarray share + - * / @ with the same values, so a model
written against this layer filters on arrays and trains on a tape.

Each node carries its backward rule (its signature is in PyTape's docstring),
a module-level function written beside the forward expression.

Values on the tape and off it may be stacks, (..., r, c): every function
acts on the last two axes and broadcasts its operands as numpy does, as JAX
vmap does (Bradbury et al., 2018).  So a 1x1 scalar scales a matrix, and a
2-D matrix or a smaller stack applies to every matrix of a stack, with no
rule of their own: each rule returns its gradients in the node's shape, and
the tape sums them over the axes an operand was broadcast along
(PyTape.backward).  The filters step a whole test set in lockstep on a
leading batch axis, and the IMM records its modes as one stack; reshape and
stack_sum move between stack layouts and reduce a stack axis.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericsError
from .pure import PyTape, as_matrix, inv_lower


def _t(v: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack, as a view."""
    return v.swapaxes(-1, -2)


# the rules of Var's operators
def _add_back(g, vals, i, a, b, aux): return g, g
def _sub_back(g, vals, i, a, b, aux): return g, -g
def _neg_back(g, vals, i, a, b, aux): return -g, None
def _addc_back(g, vals, i, a, b, aux): return g, None
def _mulc_back(g, vals, i, a, b, aux): return g * aux, None
def _mul_back(g, vals, i, a, b, aux): return g * vals[b], g * vals[a]
def _div_back(g, vals, i, a, b, aux): return g / vals[b], -g * vals[i] / vals[b]
def _matmul_back(g, vals, i, a, b, aux): return g @ _t(vals[b]), _t(vals[a]) @ g


_CONSTANT = (int, float, np.ndarray)  # operands an operator records as constants


class Var:
    """Handle to one tape node.  Arithmetic operators record new nodes."""

    __slots__ = ("tape", "i")
    __array_ufunc__ = None  # ndarray <op> Var defers to Var's reflected operator

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
        return float(self.tape.values[self.i].item())

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
        if isinstance(other, _CONSTANT):
            return self._push(vals[self.i] + other, _addc_back)
        other = self._coerce(other)
        return self._push(vals[self.i] + vals[other.i], _add_back, other.i)

    __radd__ = __add__

    def __sub__(self, other):
        vals = self.tape.values
        if isinstance(other, _CONSTANT):
            return self._push(vals[self.i] - other, _addc_back)
        other = self._coerce(other)
        return self._push(vals[self.i] - vals[other.i], _sub_back, other.i)

    def __rsub__(self, other):
        if isinstance(other, _CONSTANT):
            return (-self)._push(other - self.value, _addc_back)
        return NotImplemented

    def __neg__(self):
        return self._push(-self.value, _neg_back)

    def __mul__(self, other):
        vals = self.tape.values
        if isinstance(other, _CONSTANT):
            return self._push(vals[self.i] * other, _mulc_back, aux=other)
        other = self._coerce(other)
        return self._push(vals[self.i] * vals[other.i], _mul_back, other.i)

    __rmul__ = __mul__

    def __truediv__(self, other):
        vals = self.tape.values
        if isinstance(other, (int, float)):
            c = float(other)
            return self._push(vals[self.i] / c, _mulc_back, aux=1.0 / c)
        other = self._coerce(other)
        return self._push(vals[self.i] / vals[other.i], _div_back, other.i)

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
    return const(like.tape, value) if isinstance(like, Var) else as_matrix(value)


def scalar(x) -> float:
    """The float held by a Var or array of one value."""
    return float(value_of(x).item())


def value_of(x) -> np.ndarray:
    """The matrix or stack held by a Var or array: x's value off the tape."""
    return x.tape.values[x.i] if isinstance(x, Var) else x


def _record(x, value: np.ndarray, back, aux=None, other=None):
    """value as a node on x's tape when x is a Var (other, if given, is the
    second operand); value itself when the operands are arrays."""
    if isinstance(x, Var):
        return x._push(value, back, -1 if other is None else x._coerce(other).i, aux)
    if isinstance(other, Var):
        raise TypeError("cannot mix a Var with an array operand")
    return value


def _spread(g: np.ndarray, shape: tuple) -> np.ndarray:
    """g broadcast to shape, as a new array."""
    out = np.empty(shape)
    out[...] = g
    return out


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
        raise NumericsError("non-finite operand of a Cholesky solve", bad)


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
        raise NumericsError(f"matrix is not positive definite: {exc}", bad) from exc


def _factor(spd, *operands) -> tuple:
    """(L, L^-1): the _cholesky factor of spd's value and its inverse.  A Var's
    pair is stored on its tape by the first call and returned by every later
    one, whose operands are still checked; an array has no node to key on and
    is factored each time."""
    if not isinstance(spd, Var):
        low = _cholesky(spd, *operands)
        return low, inv_lower(low)
    factors = spd.tape.factors
    pair = factors.get(spd.i)
    if pair is None:
        low = _cholesky(spd.tape.values[spd.i], *operands)
        pair = factors[spd.i] = low, inv_lower(low)
    else:
        _check_finite(*operands)
    return pair


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
transpose = _unary(_transpose, lambda g, x, y: _transpose(g))
vsum = _unary(_vsum, lambda g, x, y: _spread(g, x.shape))


def _atan2_back(g, vals, i, a, b, aux):
    denom = vals[a] ** 2 + vals[b] ** 2
    return g * vals[b] / denom, -g * vals[a] / denom


def atan2(a, b):
    return _record(a, np.arctan2(value_of(a), value_of(b)), _atan2_back, other=b)


def _solve(inv_low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with L L' X = rhs, given L^-1: X = L^-T (L^-1 rhs)."""
    return _t(inv_low) @ (inv_low @ rhs)


def _cho_solve_back(g, vals, i, rhs, spd, aux):
    inv_low, sol = aux
    g_rhs = _solve(inv_low, g)
    return g_rhs, -g_rhs @ _t(sol)


def cho_solve(spd, rhs):
    """Solve spd @ X = rhs for symmetric positive definite spd (one Cholesky
    factor and its inverse per tape node, shared with logdet)."""
    rhs_v = value_of(rhs)
    inv_low = _factor(spd, rhs_v)[1]
    sol = _solve(inv_low, rhs_v)
    return _record(rhs, sol, _cho_solve_back, (inv_low, sol), spd)


def _logdet_back(g, vals, i, a, b, inv_low):
    return g * (_t(inv_low) @ inv_low), None  # d log det S = S^-1 = L^-T L^-1


def logdet(spd):
    """log det of a symmetric positive definite matrix, via its Cholesky factor
    (shared with cho_solve on a tape)."""
    if isinstance(spd, Var):
        low, inv_low = _factor(spd)
    else:  # no backward, so no L^-1
        low, inv_low = _cholesky(spd), None
    log_diag = np.log(np.diagonal(low, axis1=-2, axis2=-1))
    return _record(spd, (2.0 * log_diag.sum(axis=-1))[..., None, None], _logdet_back, inv_low)


def _block_back(g, vals, i, a, b, aux):
    r0, r1, c0, c1 = aux
    ga = np.zeros_like(vals[a])
    ga[..., r0:r1, c0:c1] = g
    return ga, None


def block(v, r0: int, r1: int, c0: int, c1: int):
    return _record(v, np.ascontiguousarray(value_of(v)[..., r0:r1, c0:c1]), _block_back,
                   (r0, r1, c0, c1))


def cols(v, c0: int, c1: int):
    return block(v, 0, v.shape[-2], c0, c1)


def item(v, r: int, c: int):
    return block(v, r, r + 1, c, c + 1)


def _reshape_back(g, vals, i, a, b, aux):
    return g.reshape(vals[a].shape), None


def reshape(v, shape: tuple):
    """v's values in another stack layout of the same size, such as (m, r, c)
    as (m, 1, r, c)."""
    return _record(v, value_of(v).reshape(shape), _reshape_back)


def _concat_back(g, vals, i, parts, b, bounds):
    return [np.ascontiguousarray(g[..., r0:r1, :]) for r0, r1 in zip(bounds, bounds[1:])], None


def concat_rows(parts: list):
    """The rows of every part, in order: one node over all the parts."""
    values = [value_of(p) for p in parts]
    out = np.concatenate(values, axis=-2)
    first = parts[0]
    if not isinstance(first, Var):
        return out
    bounds = np.cumsum([0] + [v.shape[-2] for v in values]).tolist()
    operands = tuple(first._coerce(p).i for p in parts)
    return Var(first.tape, first.tape.push(out, _concat_back, operands, -1, bounds))


def _stack_sum(v: np.ndarray, axis: int, keepdims: bool) -> np.ndarray:
    rest = (slice(None),) * (-axis - 1)  # the axes after `axis`
    total = v[(..., 0) + rest]
    for k in range(1, v.shape[axis]):  # in index order, so the bits do not depend on the layout
        total = total + v[(..., k) + rest]
    total = np.ascontiguousarray(total)
    return total[(..., None) + rest] if keepdims else total


def _stack_sum_back(g, vals, i, a, b, aux):
    axis, keepdims = aux
    return _spread(g if keepdims else g[(..., None) + (slice(None),) * (-axis - 1)],
                   vals[a].shape), None


def stack_sum(v, axis: int = -3, keepdims: bool = False):
    """The sum of a stack's matrices along one of its leading axes (axis < -2),
    added term by term in index order."""
    return _record(v, _stack_sum(value_of(v), axis, keepdims), _stack_sum_back, (axis, keepdims))


def logsumexp(v):
    """Stable log(sum(exp(v))) over the stack axis -3 of a stack of 1x1 values,
    kept as a unit axis; the max is a constant, so the gradient is exact."""
    peak = value_of(v).max(axis=-3, keepdims=True)
    return log(stack_sum(exp(v - peak), keepdims=True)) + peak


def backward(root: Var) -> None:
    """Run reverse accumulation from a scalar root; fills .grad on all nodes."""
    root.tape.backward(root.i)

