"""LSTM-driven Kalman filter: a recurrent network supplies the predicted
velocity and the Cholesky factor of its covariance, and a standard EKF
update closes the recursion against the range-bearing sensor.

The network is trained by full backpropagation through time on the tape,
with inputs and labels built purely from Cartesian-converted measurements
(finite-difference velocities), so no ground truth enters training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradientOptimizer, Var, clip_by_global_norm
from .ekf import ekf_update, filter_tracklet
from .statespace import (
    LOG_2PI,
    SensorConfig,
    StateEstimate,
    Tracklet,
    VEL_PROJECTION,
    polar_rows_to_cartesian,
)

_E00 = np.array([[1.0, 0.0], [0.0, 0.0]])
_E11 = np.array([[0.0, 0.0], [0.0, 1.0]])
_E10 = np.array([[0.0, 0.0], [1.0, 0.0]])

WEIGHT_NAMES = ("wx", "wh", "b", "wd", "bd", "wo", "bo")


@dataclass
class MkfConfig:
    hidden: int = 32
    dense: int = 32
    q_reg: float = 1e-2  # diagonal regularization added to the predicted covariance
    loss: str = "nll"  # "nll" (Gaussian) or "literal" (L1 form)
    clip_norm: float = 10.0

    def __post_init__(self):
        if self.loss not in ("nll", "literal"):
            raise ValueError(f"unknown loss mode {self.loss!r}")


@dataclass
class LstmWeights:
    """All trainable tensors plus the fixed input scale (physical m/s per unit)."""

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray
    wd: np.ndarray
    bd: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    input_scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.input_scale) and self.input_scale > 0.0):
            raise ValueError(f"input_scale must be positive and finite, got {self.input_scale}")

    @property
    def hidden(self) -> int:
        return self.wh.shape[0]

    @property
    def dense(self) -> int:
        return self.wd.shape[1]

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in WEIGHT_NAMES}

    def with_dict(self, values: dict) -> "LstmWeights":
        return LstmWeights(**{name: values[name].copy() for name in WEIGHT_NAMES},
                           input_scale=self.input_scale)


def init_weights(seed: int, d_in: int = 2, hidden: int = 32, dense: int = 32,
                 input_scale: float = 1.0) -> LstmWeights:
    """Uniform +-1/sqrt(fan_in) init; forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    b = np.zeros((1, 4 * hidden))
    b[0, hidden : 2 * hidden] = 1.0
    return LstmWeights(
        wx=uniform((d_in, 4 * hidden), d_in),
        wh=uniform((hidden, 4 * hidden), hidden),
        b=b,
        wd=uniform((hidden, dense), hidden),
        bd=np.zeros((1, dense)),
        wo=uniform((dense, 5), dense),
        bo=np.zeros((1, 5)),
        input_scale=input_scale,
    )


def _tape_weights(tape, w: LstmWeights) -> dict:
    return {name: ad.var(tape, getattr(w, name)) for name in WEIGHT_NAMES}


def lstm_step(weights: dict, h, c, x):
    """One LSTM cell step and its output head, on Vars or on plain arrays.

    weights maps WEIGHT_NAMES to their values; h and c are the 1xH state and
    x the scaled 1x2 input.  Gate layout along the 4H axis is [input, forget,
    cell, output].  Returns (h, c, 1x2 velocity, 2x2 lower-triangular
    Cholesky factor of its covariance).
    """
    hidden = weights["wh"].shape[0]
    gates = x @ weights["wx"] + h @ weights["wh"] + weights["b"]
    i = ad.sigmoid(ad.cols(gates, 0, hidden))
    f = ad.sigmoid(ad.cols(gates, hidden, 2 * hidden))
    g = ad.tanh(ad.cols(gates, 2 * hidden, 3 * hidden))
    o = ad.sigmoid(ad.cols(gates, 3 * hidden, 4 * hidden))
    c_new = f * c + i * g
    h_new = o * ad.tanh(c_new)
    dense = ad.tanh(h_new @ weights["wd"] + weights["bd"])
    out = dense @ weights["wo"] + weights["bo"]
    v = ad.cols(out, 0, 2)
    chol = (
        ad.scale_template(ad.exp(ad.item(out, 0, 2)), _E00)
        + ad.scale_template(ad.exp(ad.item(out, 0, 3)), _E11)
        + ad.scale_template(ad.item(out, 0, 4), _E10)
    )
    return h_new, c_new, v, chol


def mkf_predict(prior: StateEstimate, state: tuple, w: LstmWeights, dt: float,
                q_reg: float = 1e-2):
    """One network prediction step from the posterior state.

    state is the LSTM's (h, c).  The network ingests the posterior velocity
    (scaled); position moves by dt * v_nn; the covariance grows by the
    velocity-projected network covariance plus the regularization term.
    Returns (predicted StateEstimate, new (h, c)).
    """
    x = (prior.velocity / w.input_scale)[..., None, :]
    h, c, v_nn, c_nn = lstm_step(w.to_dict(), *state, x)
    v_phys = v_nn[..., 0, :] * w.input_scale
    c_phys = c_nn * w.input_scale
    mean = np.concatenate([prior.position + dt * v_phys, v_phys], axis=-1)
    vel_cov = c_phys @ c_phys.swapaxes(-1, -2)
    cov = prior.cov + VEL_PROJECTION.T @ vel_cov @ VEL_PROJECTION + np.eye(4) * q_reg
    pred = StateEstimate(mean=mean, cov=0.5 * (cov + cov.swapaxes(-1, -2)), t=prior.t + 1)
    return pred, (h, c)


def training_sequences(tracklet: Tracklet, sensor: SensorConfig, scale: float):
    """Inputs and labels from measurements only: scaled finite-difference
    velocities of the Cartesian-converted returns, shifted by one step."""
    cart = polar_rows_to_cartesian(tracklet.meas, sensor)
    fd_vel = np.diff(cart, axis=0) / tracklet.dt
    scaled = fd_vel / scale
    return scaled[:-1], scaled[1:]


def mkf_loss(wvars: dict, inputs: np.ndarray, labels: np.ndarray, hidden: int,
             mode: str = "nll") -> Var:
    """Sequence loss on the tape.

    nll: 0.5 r'(CC')^-1 r + log det C + log 2pi per step.
    literal: the L1 alternative |0.5 C r - diag(C)|_1 per step.
    """
    tape = next(iter(wvars.values())).tape
    h = ad.const(tape, np.zeros((1, hidden)))
    c = ad.const(tape, np.zeros((1, hidden)))
    total = None
    for x_row, y_row in zip(inputs, labels):
        h, c, v, chol = lstm_step(wvars, h, c, ad.const(tape, x_row.reshape(1, 2)))
        residual = ad.transpose(v) - ad.const(tape, y_row.reshape(2, 1))
        if mode == "nll":
            cov = chol @ chol.T
            solve = ad.cho_solve(cov, residual)
            quad = ad.vsum(residual * solve)
            log_det_chol = ad.log(ad.item(chol, 0, 0)) + ad.log(ad.item(chol, 1, 1))
            term = quad * 0.5 + log_det_chol + LOG_2PI
        else:
            inner = (chol @ residual) * 0.5 - ad.concat_rows(
                [ad.item(chol, 0, 0), ad.item(chol, 1, 1)]
            )
            term = ad.vsum(ad.absval(inner))
        total = term if total is None else total + term
    return total


def train_mkf(w0: LstmWeights, tracklets, sensor: SensorConfig, iterations: int,
              lr: float = 5e-4, seed: int = 0, cfg: MkfConfig = None):
    """BPTT over one sampled tracklet per iteration with Adam and global-norm
    gradient clipping.  Returns (weights, history, stopped) as ad.minimize
    does, which stops at a divergence."""
    cfg = cfg or MkfConfig()
    if not tracklets:
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    opt = GradientOptimizer(lr=lr)

    def record(weights):
        trk = tracklets[int(rng.integers(len(tracklets)))]
        inputs, labels = training_sequences(trk, sensor, weights.input_scale)
        wvars = _tape_weights(ad.make_tape(), weights)
        return mkf_loss(wvars, inputs, labels, weights.hidden, cfg.loss), wvars

    def update(weights, grads):
        grads = clip_by_global_norm(grads, cfg.clip_norm)
        return weights.with_dict(opt.step(weights.to_dict(), grads))

    return ad.minimize(record, w0, update, iterations)


def input_scale_from(tracklets, sensor: SensorConfig) -> float:
    """Pooled std of measurement-derived velocity components; 1.0 floor."""
    samples = []
    for trk in tracklets[:64]:
        cart = polar_rows_to_cartesian(trk.meas, sensor)
        samples.append(np.diff(cart, axis=0).ravel() / trk.dt)
    scale = float(np.std(np.concatenate(samples)))
    return max(scale, 1.0)


def run_mkf(tracklets, sensor: SensorConfig, w: LstmWeights, cfg: MkfConfig = None):
    """Filter one tracklet, or a list in lockstep (see ekf.filter_tracklet),
    from a zero LSTM state; returns (pred_means, post_means, post_covs)."""
    cfg = cfg or MkfConfig()

    def step(state, z):
        est, lstm_state, dt = state
        pred, lstm_state = mkf_predict(est, lstm_state, w, dt, cfg.q_reg)
        est, _, _ = ekf_update(pred, z, sensor)
        return (est, lstm_state, dt), pred.mean, est.mean, est.cov

    zero_state = (np.zeros((1, w.hidden)), np.zeros((1, w.hidden)))  # LSTM (h, c)
    return filter_tracklet(tracklets, sensor, lambda init, dt: (init, zero_state, dt), step)[:3]


# -- checkpoint container (MKF1) ----------------------------------------------


def save_mkf(path, w: LstmWeights, dt: float, sensor: SensorConfig) -> None:
    np.savez(
        path,
        format=np.array("MKF1"),
        input_scale=np.array(w.input_scale),
        dt=np.array(dt),
        sensor=np.array([sensor.origin[0], sensor.origin[1], sensor.sigma_r, sensor.sigma_a]),
        **w.to_dict(),
    )


def load_mkf(path):
    """Returns (weights, dt, sensor)."""
    with np.load(path, allow_pickle=False) as data:
        if str(data["format"]) != "MKF1":
            raise ValueError(f"{path}: not an MKF1 container")
        tensors = {name: data[name] for name in WEIGHT_NAMES}
        weights = LstmWeights(**tensors, input_scale=float(data["input_scale"]))
        sensor_vals = data["sensor"]
        sensor = SensorConfig(origin=sensor_vals[:2], sigma_r=float(sensor_vals[2]),
                              sigma_a=float(sensor_vals[3]))
        return weights, float(data["dt"]), sensor
