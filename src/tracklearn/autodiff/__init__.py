"""Reverse-mode autodiff over small dense matrices, on one numpy tape.

make_tape() returns a fresh PyTape; var and const record rule-less leaves on
it, and the functional layer in api.py records every other operation, each
node with a reference to its backward rule, written beside its forward
expression.

The same functions also run on plain float64 arrays: given no Var
operand, a function returns at once, without a tape, the value the tape
would record, computed by the same expression.  Values on the tape and off
it may be stacks with leading axes, (..., r, c), broadcast as numpy does:
the filters step a whole test set in lockstep on a batch axis, and the IMM
records its modes as one stack.  A model written once against this layer
therefore filters on arrays and trains on a tape; const_like, scalar and
value_of let it create constants and read values without knowing which.

minimize is the one gradient-descent loop: the GP, IMM and LSTM-KF trainers
each give it a record closure, which puts the loss on a fresh tape, and an
update closure, which takes one optimizer step.
"""

from __future__ import annotations

from .api import (
    Var,
    backward,
    block,
    cho_solve,
    cols,
    concat_rows,
    const,
    const_like,
    cos,
    exp,
    gaussian_nll,
    item,
    log,
    logsumexp,
    lstm_cell,
    make_tape,
    quad_form,
    range_bearing,
    reshape,
    scalar,
    sin,
    stack_sum,
    symmetrize,
    tanh,
    transpose,
    value_of,
    var,
    vsum,
)
from .optim import GradientOptimizer, clip_by_global_norm, minimize
from .pure import PyTape, inv_lower
