"""Reverse-mode autodiff over small dense matrices, on one numpy tape.

make_tape() returns a fresh PyTape; var and const record leaves on it, and
the functional layer in api.py records every other operation.
"""

from __future__ import annotations

from .api import (
    Var,
    absval,
    atan2,
    backward,
    block,
    cho_solve,
    cols,
    concat_cols,
    concat_rows,
    cos,
    exp,
    finite_difference,
    item,
    log,
    logdet,
    logsumexp,
    matmul,
    rows,
    scale_template,
    sigmoid,
    sin,
    sqrt,
    tanh,
    transpose,
    vsum,
)
from .optim import GradientOptimizer, clip_by_global_norm
from .pure import PyTape


def make_tape() -> PyTape:
    """New empty tape."""
    return PyTape()


def var(tape, value) -> Var:
    """New differentiable leaf."""
    return Var(tape, tape.leaf(value))


def const(tape, value) -> Var:
    """New constant node (no gradient accumulated into it)."""
    return Var(tape, tape.const(value))
