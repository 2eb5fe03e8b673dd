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

The pieces every filter step repeats (the range-bearing model, the quadratic
form A P A', the symmetrisation, the Gaussian innovation NLL, logsumexp and
the LSTM cell) are one node each, with a closed-form rule: a recorded IMM
step holds about half the nodes of their composed form, with the same values.
The same Gaussian NLL node, on n x c columns, is the GP's negative log
marginal likelihood, so no log det has a node of its own.
"""

from __future__ import annotations

from functools import reduce

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


def _logistic(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-v)), from the exp of -|v| so that it never overflows: the
    bits of that formula for v >= 0 and of exp(v) / (1 + exp(v)) below."""
    e = np.exp(-np.abs(v))
    denom = 1.0 + e
    return np.where(v >= 0, 1.0 / denom, e / denom)


def _transpose(v: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(v.swapaxes(-1, -2))


def _vsum(v: np.ndarray) -> np.ndarray:
    return v.sum(axis=(-2, -1), keepdims=True)


def _check_finite(*operands) -> None:
    # each operand's verdicts, broadcast against the others' as the operands are
    bad = ~reduce(np.logical_and, [np.isfinite(x).all(axis=(-2, -1)) for x in operands], np.True_)
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
    """(L, L^-1): the _cholesky factor of spd's value and its inverse, for
    cho_solve and gaussian_nll.  A Var's pair is stored on its tape by the
    first call and returned by every later one, whose operands are still
    checked; an array has no node to key on and is factored each time."""
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
sin = _unary(np.sin, lambda g, x, y: g * np.cos(x))
cos = _unary(np.cos, lambda g, x, y: -g * np.sin(x))
transpose = _unary(_transpose, lambda g, x, y: _transpose(g))
vsum = _unary(_vsum, lambda g, x, y: _spread(g, x.shape))


def _solve(inv_low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with L L' X = rhs, given L^-1: X = L^-T (L^-1 rhs)."""
    return _t(inv_low) @ (inv_low @ rhs)


def _cho_solve_back(g, vals, i, rhs, spd, aux):
    inv_low, sol = aux
    g_rhs = _solve(inv_low, g)
    return g_rhs, -g_rhs @ _t(sol)


def cho_solve(spd, rhs):
    """Solve spd @ X = rhs for symmetric positive definite spd (one Cholesky
    factor and its inverse per tape node, shared with gaussian_nll)."""
    rhs_v = value_of(rhs)
    inv_low = _factor(spd, rhs_v)[1]
    sol = _solve(inv_low, rhs_v)
    return _record(rhs, sol, _cho_solve_back, (inv_low, sol), spd)


# -- the filter step's recurring pieces, one node each ---------------------------
# Each value is the expression the composed nodes computed, in their order, so
# fusing them moves no bits; each rule is the piece's gradient in closed form.

_LOG_2PI = np.log(2.0 * np.pi)


def _measure_back(g, vals, i, x, b, jac):
    return _t(jac) @ g, None


def _jacobian_back(g, vals, i, x, b, aux):
    # the second derivatives of range and bearing in the offsets (dx, dy),
    # with (ux, uy) = (dx, dy) / r: d(ux)/d(dx) = uy^2 / r, d(-dy/r^2)/d(dx) =
    # 2 ux uy / r^2, and so on, contracted with the Jacobian's gradient
    ux, uy, r = aux
    g_ux, g_uy, g_vx, g_vy = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
    tangent = (g_ux * uy - g_uy * ux) / r
    twice, diff = 2.0 * ux * uy, uy * uy - ux * ux
    gx = np.zeros(g.shape[:-2] + vals[x].shape[-2:])
    gx[..., 0, 0] = uy * tangent + (g_vx * twice + g_vy * diff) / (r * r)
    gx[..., 1, 0] = -ux * tangent + (g_vx * diff - g_vy * twice) / (r * r)
    return gx, None


def range_bearing(x, origin: np.ndarray):
    """([range; bearing], Jacobian) of a state column x (rows 0 and 1 the
    position), or of each column of a stack, seen from origin: a 2x1 value and
    a 2xn one.  On a tape, one forward pass records both, the measurement with
    the rule J'g and the Jacobian with the second derivatives.

    Raises NumericsError when the position coincides with the origin.
    """
    value = value_of(x)
    dx = value[..., 0, 0] - float(origin[0])
    dy = value[..., 1, 0] - float(origin[1])
    r_sq = dx * dx + dy * dy
    at_origin = r_sq == 0.0
    if at_origin.any():
        raise NumericsError("state coincides with the sensor origin", at_origin)
    r = np.sqrt(r_sq)
    meas = np.empty(value.shape[:-2] + (2, 1))
    meas[..., 0, 0] = r
    meas[..., 1, 0] = np.arctan2(dy, dx)
    jac = np.zeros(value.shape[:-2] + (2, value.shape[-2]))
    jac[..., 0, 0] = ux = dx / r
    jac[..., 0, 1] = uy = dy / r
    jac[..., 1, 0] = -(dy / r_sq)
    jac[..., 1, 1] = dx / r_sq
    if not isinstance(x, Var):
        return meas, jac
    return x._push(meas, _measure_back, aux=jac), x._push(jac, _jacobian_back, aux=(ux, uy, r))


def _quad_form_back(g, vals, i, a, p, a_p):
    av = vals[a]
    return g @ (av @ _t(vals[p])) + _t(g) @ a_p, _t(av) @ g @ av


def quad_form(a, p):
    """a @ p @ a', as one node: F P F', H P H', (I - KH) P (I - KH)', K R K'."""
    av = value_of(a)
    a_p = av @ value_of(p)
    return _record(a, a_p @ _transpose(av), _quad_form_back, a_p, p)


def _symmetrize_back(g, vals, i, a, b, aux):
    return (g + _t(g)) * 0.5, None


def symmetrize(p):
    """(p + p') / 2, as one node."""
    value = value_of(p)
    return _record(p, (value + _t(value)) * 0.5, _symmetrize_back)


def _gaussian_nll_back(g, vals, i, nu, s, aux):
    inv_low, sol = aux
    return g * sol, (g * 0.5) * (sol.shape[-1] * (_t(inv_low) @ inv_low) - sol @ _t(sol))


def gaussian_nll(nu, s):
    """Negative log density of the c columns of an n x c nu, each an independent
    Gaussian draw with covariance s: 0.5 (sum of nu * s^-1 nu + c log det s +
    c n log 2pi), as one node.  One factor of s serves the solve and the log
    det (on a tape, the one factor per node, shared with cho_solve).  A
    filter's innovation is one column; the GP's marginal likelihood
    (Rasmussen and Williams, 2006, eq. 2.30) has one per output axis."""
    nu_v = value_of(nu)
    low, inv_low = _factor(s, nu_v)
    sol = _solve(inv_low, nu_v)
    log_det = (2.0 * np.log(np.diagonal(low, axis1=-2, axis2=-1)).sum(axis=-1))[..., None, None]
    n, c = nu_v.shape[-2:]
    value = (_vsum(nu_v * sol) + c * log_det + c * n * _LOG_2PI) * 0.5
    return _record(nu, value, _gaussian_nll_back, (inv_low, sol), s)


def _lstm_cell_back(g, vals, i, gates, c, aux):
    act, cand, tanh_c = aux
    n = tanh_c.shape[-1]
    gate_i, gate_f, gate_o = act[..., :n], act[..., n:2 * n], act[..., 3 * n:]
    g_h = g[..., :n]
    g_c = g[..., n:] + g_h * gate_o * (1.0 - tanh_c * tanh_c)
    g_gates = np.empty(g.shape[:-1] + act.shape[-1:])
    g_gates[..., :n] = g_c * cand * gate_i * (1.0 - gate_i)
    g_gates[..., n:2 * n] = g_c * vals[c] * gate_f * (1.0 - gate_f)
    g_gates[..., 2 * n:3 * n] = g_c * gate_i * (1.0 - cand * cand)
    g_gates[..., 3 * n:] = g_h * tanh_c * gate_o * (1.0 - gate_o)
    return g_gates, g_c * gate_f


def lstm_cell(gates, c):
    """The LSTM cell as one node: from the pre-activations gates (4H columns,
    gate layout [input, forget, cell, output]) and the cell state c (H
    columns), the row [h | c'] with c' = f c + i g and h = o tanh(c')."""
    gv, cv = value_of(gates), value_of(c)
    n = cv.shape[-1]
    act = _logistic(gv)
    cand = np.tanh(gv[..., 2 * n:3 * n])
    c_new = act[..., n:2 * n] * cv + act[..., :n] * cand
    tanh_c = np.tanh(c_new)
    out = np.concatenate([act[..., 3 * n:] * tanh_c, c_new], axis=-1)
    return _record(gates, out, _lstm_cell_back, (act, cand, tanh_c), c)


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


def _logsumexp_back(g, vals, i, a, b, aux):
    e, total = aux
    return (g / total) * e, None


def logsumexp(v):
    """Stable log(sum(exp(v))) over the stack axis -3 of a stack of 1x1 values,
    kept as a unit axis: one node, whose rule is the softmax of v times g."""
    value = value_of(v)
    peak = value.max(axis=-3, keepdims=True)
    e = np.exp(value - peak)
    total = _stack_sum(e, -3, True)
    return _record(v, _log(total) + peak, _logsumexp_back, (e, total))


def backward(root: Var) -> None:
    """Run reverse accumulation from a scalar root; fills .grad on all nodes."""
    root.tape.backward(root.i)

