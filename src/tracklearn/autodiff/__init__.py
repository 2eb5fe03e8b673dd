"""Reverse-mode autodiff over small dense matrices, on one numpy tape.

make_tape() returns a fresh PyTape; var and const record leaves on it, and
the functional layer in api.py records every other operation.

The same functions also run on plain 2-D float64 arrays: given no Var
operand, a function returns at once, without a tape, the value the tape
would record, computed by the same expression.  A model written once
against this layer therefore filters on arrays and trains on a tape;
const_like, scalar and value_of let it create constants and read values
without knowing which.
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
    const,
    const_like,
    cos,
    exp,
    finite_difference,
    item,
    log,
    logdet,
    logsumexp,
    make_tape,
    rows,
    scalar,
    scale_template,
    sigmoid,
    sin,
    sqrt,
    tanh,
    transpose,
    value_of,
    var,
    vsum,
)
from .optim import GradientOptimizer, clip_by_global_norm
from .pure import PyTape
