"""LSTM-driven Kalman filter: a recurrent network supplies the predicted
velocity and the Cholesky factor of its covariance, and the shared
Joseph-form EKF update (ekf.joseph_update) closes the recursion against the
range-bearing sensor.  The state between steps is plain (mean, cov) arrays.

The network is trained by full backpropagation through time on the tape,
with inputs and labels built purely from Cartesian-converted measurements
(finite-difference velocities), so no ground truth enters training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradientOptimizer, Var, clip_by_global_norm
from .ekf import filter_tracklet, joseph_update
from .statespace import LOG_2PI, SensorConfig, Tracklet, polar_to_cartesian

WEIGHT_NAMES = ("wx", "wh", "b", "wd", "bd", "wo", "bo")
D_IN = 2  # the network's input: one velocity (v1, v2)


@dataclass
class MkfConfig:
    hidden: int = 32
    dense: int = 32
    q_reg: float = 1e-2  # diagonal regularization added to the predicted covariance
    clip_norm: float = 10.0

    def __post_init__(self):
        if min(self.hidden, self.dense) < 1:
            raise ValueError(f"hidden and dense must be at least 1, "
                             f"got {self.hidden}, {self.dense}")
        if not 0.0 <= self.q_reg < np.inf:
            raise ValueError(f"q_reg must be finite and >= 0, got {self.q_reg}")
        if not 0.0 < self.clip_norm < np.inf:
            raise ValueError(f"clip_norm must be positive and finite, got {self.clip_norm}")


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


def init_weights(seed: int, hidden: int = 32, dense: int = 32,
                 input_scale: float = 1.0) -> LstmWeights:
    """Uniform +-1/sqrt(fan_in) init; forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    b = np.zeros((1, 4 * hidden))
    b[0, hidden : 2 * hidden] = 1.0
    return LstmWeights(
        wx=uniform((D_IN, 4 * hidden), D_IN),
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


def _cell(gates, c, hidden: int):
    """The LSTM cell (ad.lstm_cell) from its pre-activations gates (1x4H per
    row, gate layout [input, forget, cell, output]) and cell state c; returns (h, c)."""
    out = ad.lstm_cell(gates, c)
    return ad.cols(out, 0, hidden), ad.cols(out, hidden, 2 * hidden)


def _head(weights: dict, h):
    """The dense output head, one row per row of h: [v1, v2, log c00, log
    c11, c10], the velocity and the entries of its covariance's Cholesky factor."""
    return ad.tanh(h @ weights["wd"] + weights["bd"]) @ weights["wo"] + weights["bo"]


def lstm_step(weights: dict, h, c, x):
    """One LSTM cell step and its output head, on arrays.

    weights maps WEIGHT_NAMES to their values; h and c are the 1xH state and
    x the scaled 1x2 input, or stacks of them.  Returns (h, c, 1x2 velocity,
    2x2 lower-triangular Cholesky factor of its covariance).
    """
    hidden = weights["wh"].shape[0]
    h_new, c_new = _cell(x @ weights["wx"] + h @ weights["wh"] + weights["b"], c, hidden)
    out = _head(weights, h_new)
    chol = np.zeros(out.shape[:-2] + (2, 2))
    chol[..., 0, 0] = np.exp(out[..., 0, 2])
    chol[..., 1, 1] = np.exp(out[..., 0, 3])
    chol[..., 1, 0] = out[..., 0, 4]
    return h_new, c_new, ad.cols(out, 0, 2), chol


def mkf_predict(mean, cov, state: tuple, w: LstmWeights, dt: float, q_reg: float = 1e-2):
    """One network prediction step from the posterior (mean, cov).

    state is the LSTM's (h, c).  The network ingests the posterior velocity
    (scaled) and replaces it by its own v_nn, of covariance C C'; position
    moves by dt * v_nn.  With G = [dt I; I], the predicted covariance is
    G C C' G' + [[P_pp, 0], [0, 0]] + q_reg I, for the posterior's position
    block P_pp.  Returns (predicted mean, predicted cov, new (h, c)).
    """
    x = (mean[..., 2:] / w.input_scale)[..., None, :]
    h, c, v_nn, c_nn = lstm_step(w.to_dict(), *state, x)
    v_phys = v_nn[..., 0, :] * w.input_scale
    c_phys = c_nn * w.input_scale
    pred = np.concatenate([mean[..., :2] + dt * v_phys, v_phys], axis=-1)
    g = np.vstack([dt * np.eye(2), np.eye(2)])
    pred_cov = g @ c_phys @ c_phys.swapaxes(-1, -2) @ g.T + np.eye(4) * q_reg
    pred_cov[..., :2, :2] += cov[..., :2, :2]
    return pred, ad.symmetrize(pred_cov), (h, c)


def _fd_velocities(tracklet: Tracklet, sensor: SensorConfig) -> np.ndarray:
    """(T - 1, 2) finite-difference velocities of the Cartesian-converted returns."""
    return np.diff(polar_to_cartesian(*tracklet.meas.T, sensor), axis=0) / tracklet.dt


def training_sequences(tracklet: Tracklet, sensor: SensorConfig, scale: float):
    """Inputs and labels from measurements only: scaled finite-difference
    velocities of the Cartesian-converted returns, shifted by one step."""
    scaled = _fd_velocities(tracklet, sensor) / scale
    return scaled[:-1], scaled[1:]


def mkf_loss(wvars: dict, inputs: np.ndarray, labels: np.ndarray, hidden: int) -> Var:
    """Sequence Gaussian NLL on the tape: 0.5 |C^-1 r|^2 + log c00 + log c11 +
    log 2pi per step, for the residual r of the predicted velocity against
    its label and the head's lower-triangular factor C of its covariance.

    The inputs pass through wx in one product and the head runs once on all
    the hidden rows, so only the recurrent cell is recorded per step."""
    tape = next(iter(wvars.values())).tape
    gates_x = ad.const(tape, inputs) @ wvars["wx"] + wvars["b"]
    h = c = ad.const(tape, np.zeros((1, hidden)))
    rows = []
    for t in range(len(inputs)):
        h, c = _cell(ad.block(gates_x, t, t + 1, 0, 4 * hidden) + h @ wvars["wh"], c, hidden)
        rows.append(h)
    out = _head(wvars, ad.concat_rows(rows))
    residual = ad.cols(out, 0, 2) - labels
    log_c00, log_c11, c10 = (ad.cols(out, k, k + 1) for k in (2, 3, 4))
    # C^-1 r by forward substitution, one column per entry
    y0 = ad.cols(residual, 0, 1) / ad.exp(log_c00)
    y1 = (ad.cols(residual, 1, 2) - c10 * y0) / ad.exp(log_c11)
    quad = ad.vsum(y0 * y0 + y1 * y1)
    return quad * 0.5 + ad.vsum(log_c00 + log_c11) + len(inputs) * LOG_2PI


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
        return mkf_loss(wvars, inputs, labels, weights.hidden), wvars

    def update(weights, grads):
        grads = clip_by_global_norm(grads, cfg.clip_norm)
        return weights.with_dict(opt.step(weights.to_dict(), grads))

    return ad.minimize(record, w0, update, iterations)


def input_scale_from(tracklets, sensor: SensorConfig) -> float:
    """Pooled std of measurement-derived velocity components; 1.0 floor."""
    samples = [_fd_velocities(trk, sensor).ravel() for trk in tracklets[:64]]
    scale = float(np.std(np.concatenate(samples)))
    return max(scale, 1.0)


def run_mkf(tracklets, sensor: SensorConfig, w: LstmWeights, cfg: MkfConfig = None):
    """Filter one tracklet, or a list in lockstep (see ekf.filter_tracklet),
    from a zero LSTM state; returns (pred_means, post_means, post_covs)."""
    cfg = cfg or MkfConfig()

    def step(state, z):
        (mean, cov), lstm_state, dt = state
        pred, cov, lstm_state = mkf_predict(mean, cov, lstm_state, w, dt, cfg.q_reg)
        x, p, _, _ = joseph_update(pred[..., None], cov, *z, sensor.noise_cov, sensor.origin)
        return ((x[..., 0], p), lstm_state, dt), pred, x[..., 0], p

    zero_state = (np.zeros((1, w.hidden)), np.zeros((1, w.hidden)))  # LSTM (h, c)
    return filter_tracklet(tracklets, sensor, lambda init, dt: (init, zero_state, dt), step)[:3]


# -- checkpoint container (MKF1) ----------------------------------------------


def save_mkf(path, w: LstmWeights, dt: float, sensor: SensorConfig) -> None:
    np.savez(
        path,
        format=np.array("MKF1"),
        input_scale=np.array(w.input_scale),
        dt=np.array(dt),
        sensor=sensor.to_row(),
        **w.to_dict(),
    )


def load_mkf(path):
    """Returns (weights, dt, sensor)."""
    with np.load(path, allow_pickle=False) as data:
        if str(data["format"]) != "MKF1":
            raise ValueError(f"{path}: not an MKF1 container")
        tensors = {name: data[name] for name in WEIGHT_NAMES}
        weights = LstmWeights(**tensors, input_scale=float(data["input_scale"]))
        return weights, float(data["dt"]), SensorConfig.from_row(data["sensor"])
