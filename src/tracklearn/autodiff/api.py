"""User-facing Var wrapper and the functional layer that records onto a tape."""

from __future__ import annotations

import numpy as np


class Var:
    """Handle to one tape node.  Arithmetic operators record new nodes."""

    __slots__ = ("tape", "i")

    def __init__(self, tape, i: int):
        self.tape = tape
        self.i = i

    @property
    def value(self) -> np.ndarray:
        return self.tape.value(self.i)

    @property
    def grad(self) -> np.ndarray:
        return self.tape.grad(self.i)

    @property
    def shape(self):
        return self.tape.value(self.i).shape

    @property
    def is_scalar(self) -> bool:
        return self.shape == (1, 1)

    def scalar(self) -> float:
        return float(self.tape.value(self.i)[0, 0])

    @property
    def T(self) -> "Var":
        return Var(self.tape, self.tape.transpose(self.i))

    def _wrap(self, i: int) -> "Var":
        return Var(self.tape, i)

    def _coerce(self, other) -> "Var":
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise ValueError("operands live on different tapes")
            return other
        raise TypeError(f"expected Var or float, got {type(other)!r}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return self._wrap(self.tape.addc(self.i, float(other)))
        return self._wrap(self.tape.add(self.i, self._coerce(other).i))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self._wrap(self.tape.addc(self.i, -float(other)))
        return self._wrap(self.tape.sub(self.i, self._coerce(other).i))

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return self._wrap(self.tape.addc(self.tape.neg(self.i), float(other)))
        return NotImplemented

    def __neg__(self):
        return self._wrap(self.tape.neg(self.i))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._wrap(self.tape.mulc(self.i, float(other)))
        other = self._coerce(other)
        if self.shape == other.shape:
            return self._wrap(self.tape.mul(self.i, other.i))
        if self.is_scalar:
            return self._wrap(self.tape.smul(self.i, other.i))
        if other.is_scalar:
            return self._wrap(self.tape.smul(other.i, self.i))
        raise ValueError(f"shape mismatch in mul: {self.shape} vs {other.shape}")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self._wrap(self.tape.mulc(self.i, 1.0 / float(other)))
        other = self._coerce(other)
        if self.shape == other.shape:
            return self._wrap(self.tape.div(self.i, other.i))
        if other.is_scalar:
            return self._wrap(self.tape.sdiv(self.i, other.i))
        raise ValueError(f"shape mismatch in div: {self.shape} vs {other.shape}")

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            num = self.tape.const(np.full_like(self.value, float(other)))
            return self._wrap(self.tape.div(num, self.i))
        return NotImplemented

    def __matmul__(self, other):
        return self._wrap(self.tape.matmul(self.i, self._coerce(other).i))


def _unary(name):
    def fn(v: Var) -> Var:
        return Var(v.tape, getattr(v.tape, name)(v.i))

    fn.__name__ = name
    return fn


exp = _unary("exp")
log = _unary("log")
tanh = _unary("tanh")
sigmoid = _unary("sigmoid")
sqrt = _unary("sqrt")
sin = _unary("sin")
cos = _unary("cos")
absval = _unary("absv")
transpose = _unary("transpose")
vsum = _unary("vsum")


def atan2(a: Var, b: Var) -> Var:
    return Var(a.tape, a.tape.atan2(a.i, b.i))


def matmul(a: Var, b: Var) -> Var:
    return a @ b


def cho_solve(spd: Var, rhs: Var) -> Var:
    """Solve spd @ X = rhs for symmetric positive definite spd."""
    return Var(spd.tape, spd.tape.cho_solve(spd.i, rhs.i))


def logdet(spd: Var) -> Var:
    """log det of a symmetric positive definite matrix, via Cholesky."""
    return Var(spd.tape, spd.tape.logdet(spd.i))


def block(v: Var, r0: int, r1: int, c0: int, c1: int) -> Var:
    return Var(v.tape, v.tape.slice(v.i, r0, r1, c0, c1))


def rows(v: Var, r0: int, r1: int) -> Var:
    return block(v, r0, r1, 0, v.shape[1])


def cols(v: Var, c0: int, c1: int) -> Var:
    return block(v, 0, v.shape[0], c0, c1)


def item(v: Var, r: int, c: int) -> Var:
    return block(v, r, r + 1, c, c + 1)


def scale_template(s: Var, template) -> Var:
    """Scalar Var times a constant matrix template."""
    return Var(s.tape, s.tape.scale_template(s.i, template))


def concat_rows(parts: list[Var]) -> Var:
    rows_total = sum(p.shape[0] for p in parts)
    cols_n = parts[0].shape[1]
    tape = parts[0].tape
    out = None
    r = 0
    for p in parts:
        piece = Var(tape, tape.embed(p.i, rows_total, cols_n, r, 0))
        out = piece if out is None else out + piece
        r += p.shape[0]
    return out


def concat_cols(parts: list[Var]) -> Var:
    cols_total = sum(p.shape[1] for p in parts)
    rows_n = parts[0].shape[0]
    tape = parts[0].tape
    out = None
    c = 0
    for p in parts:
        piece = Var(tape, tape.embed(p.i, rows_n, cols_total, 0, c))
        out = piece if out is None else out + piece
        c += p.shape[1]
    return out


def logsumexp(terms: list[Var]) -> Var:
    """Stable log(sum(exp(t))) over 1x1 Vars; the max is detached, so the
    gradient is exact."""
    m = max(t.scalar() for t in terms)
    acc = None
    for t in terms:
        e = exp(t + (-m))
        acc = e if acc is None else acc + e
    return log(acc) + m


def backward(root: Var) -> None:
    """Run reverse accumulation from a scalar root; fills .grad on all nodes."""
    root.tape.backward(root.i)


def finite_difference(f, theta: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        h = rel_step * max(1.0, abs(theta[k]))
        up = theta.copy()
        dn = theta.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (f(up) - f(dn)) / (2.0 * h)
    return grad
