"""Interacting multiple model filter with tape-differentiable recursion.

The full IMM cycle (mixing, mode-matched EKF filtering, probability update,
combination) is written once against the autodiff functions, on the modes
as one stack, so a step records the same nodes at any mode count.  Training
records it on a tape, whose backward pass gives exact gradients of the
measurement negative log-likelihood; filtering runs the same recursion on
plain arrays, with no tape, for a batch of tracklets in lockstep.  With the
one mode cv it is the constant-velocity EKF: the mixing weight is 1 and the
spread term 0, so the EKF benchmark runs here (run_ekf).

Constrained parameters are optimized through smooth bijections: transition
rows through a softmax, variances through exp.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GradientOptimizer, Var
from .ekf import cv_transition, filter_tracklet, gaussian_nll, joseph_update, wna_template
from .statespace import SensorConfig, Tracklet

MODE_CV = "cv"
MODE_CT = "ct"

# basis matrices for assembling the coordinated-turn transition from scalars
_T_POS = np.diag([1.0, 1.0, 0.0, 0.0])
_T_A = np.zeros((4, 4)); _T_A[0, 2] = 1.0; _T_A[1, 3] = 1.0
_T_B = np.zeros((4, 4)); _T_B[0, 3] = -1.0; _T_B[1, 2] = 1.0
_T_C = np.zeros((4, 4)); _T_C[2, 2] = 1.0; _T_C[3, 3] = 1.0
_T_S = np.zeros((4, 4)); _T_S[2, 3] = -1.0; _T_S[3, 2] = 1.0


PROB_FLOOR = 1e-12  # the least mode probability a step leaves


@dataclass(frozen=True)
class ImmConfig:
    modes: tuple = (MODE_CV, MODE_CT)
    train_r: bool = True

    def __post_init__(self):
        if not self.modes:
            raise ValueError("need at least one mode")
        if any(m not in (MODE_CV, MODE_CT) for m in self.modes):
            raise ValueError(f"unknown mode in {self.modes}")


@dataclass
class ImmParams:
    """Unconstrained IMM parameter block.

    trans_logits rows pass through a softmax to give the mode transition
    matrix; log_q and the measurement-noise log-stds map through exp.
    omega holds the turn rate (rad/s) for ct modes (ignored for cv).
    """

    modes: tuple
    trans_logits: np.ndarray
    log_q: np.ndarray
    omega: np.ndarray
    log_sigma_r: float
    log_sigma_a: float

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def transition_matrix(self) -> np.ndarray:
        return _softmax(self.trans_logits.reshape(self.n_modes, self.n_modes, 1, 1))[..., 0, 0]

    def to_dict(self, train_r: bool = True) -> dict:
        out = {
            "trans_logits": np.asarray(self.trans_logits, dtype=float),
            "log_q": np.asarray(self.log_q, dtype=float),
        }
        if MODE_CT in self.modes:
            out["omega"] = np.asarray(self.omega, dtype=float)
        if train_r:
            out["log_r"] = np.array([self.log_sigma_r, self.log_sigma_a])
        return out

    def with_dict(self, values: dict) -> "ImmParams":
        new = replace(self)
        new.trans_logits = values["trans_logits"].copy()
        new.log_q = values["log_q"].copy()
        if "omega" in values:
            new.omega = values["omega"].copy()
        if "log_r" in values:
            new.log_sigma_r = float(values["log_r"][0])
            new.log_sigma_a = float(values["log_r"][1])
        return new


def default_params(sensor: SensorConfig, cfg: ImmConfig = ImmConfig(),
                   init_q: float = 1.0, init_omega: float = 0.1,
                   diag_prob: float = 0.95) -> ImmParams:
    """Untrained parameters: the k-th ct mode (k = 0, 1, ... over the ct modes)
    turns at (-1)^k init_omega, so cv,ct,ct covers both turn directions."""
    if not init_q > 0.0:
        raise ValueError(f"init_q must be positive, got {init_q}")
    m = len(cfg.modes)
    is_ct = np.array(cfg.modes) == MODE_CT
    if m == 1:
        trans = np.zeros((1, 1))
    else:
        off = (1.0 - diag_prob) / (m - 1)
        trans = np.log(np.full((m, m), off) + np.eye(m) * (diag_prob - off))
    return ImmParams(
        modes=tuple(cfg.modes),
        trans_logits=trans,
        log_q=np.log(np.full(m, init_q)),
        omega=np.where(is_ct, init_omega * (-1.0) ** (np.cumsum(is_ct) - 1), 0.0),
        log_sigma_r=float(np.log(sensor.sigma_r)),
        log_sigma_a=float(np.log(sensor.sigma_a)),
    )


# -- tape construction ---------------------------------------------------------


def _transition_vars(like, params: ImmParams, mode_idx: int, dt: float,
                     omega_var: Var | None) -> Var:
    """Transition matrix for one mode, beside `like` (see ad.const_like); ct
    builds the exact arc from omega."""
    kind = params.modes[mode_idx]
    if kind == MODE_CV:
        return ad.const_like(like, cv_transition(dt))
    theta = omega_var * dt
    # near zero turn rate the ratios a = sin(th)/w, b = (1-cos(th))/w are
    # evaluated by series so the cv limit is exact and differentiable
    if abs(ad.scalar(omega_var) * dt) < 1e-4:
        w_sq = omega_var * omega_var
        a = w_sq * (-dt**3 / 6.0) + dt
        b = omega_var * (dt**2 / 2.0) + (w_sq * omega_var) * (-dt**4 / 24.0)
    else:
        a = ad.sin(theta) / omega_var
        b = (1.0 - ad.cos(theta)) / omega_var
    return (ad.const_like(like, _T_POS) + a * _T_A + b * _T_B
            + ad.cos(theta) * _T_C + ad.sin(theta) * _T_S)


def _softmax(logits):
    """p_ij, row i of the (m, m, 1, 1) logits stack through a softmax over j (axis -3)."""
    exps = ad.exp(logits - ad.value_of(logits).max(axis=-3, keepdims=True))
    return exps / ad.stack_sum(exps, keepdims=True)


def _moment_match(w, x, p, axis):
    """Moment match over axis: (mean = sum_i w_i x_i, keeping axis; sum_i w_i (P_i + d_i d_i'))."""
    mean = ad.stack_sum(w * x, axis=axis, keepdims=True)
    d = x - mean
    return mean, ad.stack_sum(w * (p + d @ ad.transpose(d)), axis=axis)


def _source(v):
    """A (..., m, r, c) mode stack as (..., m, 1, r, c): mode i on axis -4."""
    return ad.reshape(v, v.shape[:-2] + (1,) + v.shape[-2:])


def _target(v):
    """A (..., 1, m, r, c) stack as (..., m, r, c), its modes back on axis -3."""
    return ad.reshape(v, v.shape[:-4] + v.shape[-3:])


def _mix(trans, mu, x, p):
    """IMM mixing of the mode stacks: (mu_pred, mixed means, mixed covs).

    trans is the (m, m, 1, 1) stack of transition probabilities p_ij, and
    mu, x, p the (..., m, ., .) stacks of mode probabilities, means and
    covariances.  With source mode i on axis -4 and target mode j on axis
    -3, mu_pred_j = sum_i p_ij mu_i, the weights are w_ij = p_ij mu_i /
    mu_pred_j, and mode j starts from the moment-matched mixture: mean_j =
    sum_i w_ij x_i and cov_j = sum_i w_ij (P_i + d_ij d_ij'), d_ij = x_i - mean_j.
    """
    weighted = trans * _source(mu)
    mu_pred = ad.stack_sum(weighted, axis=-4, keepdims=True)
    mean, cov = _moment_match(weighted / mu_pred, _source(x), _source(p), axis=-4)
    return _target(mu_pred), _target(mean), cov


def _floor_probs(mu, floor: float):
    """Probabilities below floor raised to it, all renormalized; batch rows
    with none below keep theirs."""
    value = ad.value_of(mu)
    hit = (value < floor).any(axis=-3, keepdims=True)
    if not hit.any():
        return mu
    keep = value >= floor
    floored = mu * keep + np.where(keep, 0.0, floor)
    out = floored / ad.stack_sum(floored, keepdims=True)
    return out if isinstance(mu, Var) else np.where(hit, out, mu)


class ImmGraph:
    """The IMM recursion over a measurement sequence.  With record=True the
    parameters are leaves on self.tape and every step records its nodes there,
    for imm_nll's backward pass; otherwise they are arrays and the tape stays empty.
    Every mode starts from init, the two-point (mean, cov) of ekf.init_track.

    The m modes are one stack: means x (m, 4, 1), covariances p (m, 4, 4) and
    probabilities mu (m, 1, 1), or (B, m, ., .) for a batch, so a step
    records the same nodes at any m."""

    def __init__(self, params: ImmParams, init: tuple, dt: float,
                 origin: np.ndarray, cfg: ImmConfig, record: bool = False):
        self.origin = np.asarray(origin, dtype=float)
        self.tape = ad.make_tape()
        leaf = (lambda v: ad.var(self.tape, v)) if record else (lambda v: ad.const_like(None, v))
        m = params.n_modes

        self.leaves = {name: leaf(np.atleast_2d(value))
                       for name, value in params.to_dict(cfg.train_r).items()}
        like = self.leaves["trans_logits"]
        log_r = self.leaves.get("log_r")
        if log_r is None:  # train_r is off: the stored stds, as constants
            log_r = ad.const_like(like, [[params.log_sigma_r, params.log_sigma_a]])
        sr, sa = (ad.exp(ad.item(log_r, 0, k)) for k in (0, 1))
        self.r_var = (sr * sr) * np.diag([1.0, 0.0]) + (sa * sa) * np.diag([0.0, 1.0])

        self.trans = _softmax(ad.reshape(self.leaves["trans_logits"], (m, m, 1, 1)))
        f = ad.concat_rows([
            _transition_vars(like, params, j, dt, ad.item(self.leaves["omega"], 0, j)
                             if params.modes[j] == MODE_CT else None) for j in range(m)])
        self.f = ad.reshape(f, (m, 4, 4))
        self.f_t = ad.transpose(self.f)
        self.q = ad.reshape(ad.exp(self.leaves["log_q"]), (m, 1, 1)) * wna_template(dt)

        mean, cov = init
        modes = cov.shape[:-2] + (m,)
        self.x = ad.const_like(like, np.broadcast_to(mean[..., None, :, None], modes + (4, 1)))
        self.p = ad.const_like(like, np.broadcast_to(cov[..., None, :, :], modes + (4, 4)))
        self.mu = ad.const_like(like, np.full(modes + (1, 1), 1.0 / m))
        self.loss_terms = []

    # one full IMM cycle against measurement (z_range, z_bearing), one per batch row on stacks
    def step(self, z_range, z_bearing):
        mu_pred, mixed_x, mixed_p = _mix(self.trans, self.mu, self.x, self.p)

        # -- mode-matched prediction and update, every mode at once
        pred_x = self.f @ mixed_x
        post_x, post_p, nu, s = joseph_update(pred_x, self.f @ mixed_p @ self.f_t + self.q,
                                              z_range, z_bearing, self.r_var, self.origin)

        # -- predictive log-density of this measurement, the exact mixture's
        joint = ad.log(mu_pred) - gaussian_nll(nu, s)
        log_norm = ad.logsumexp(joint)
        self.loss_terms.append(-log_norm)

        # -- mode probability update (normalized by construction)
        mu_post = _floor_probs(ad.exp(joint - log_norm), PROB_FLOOR)
        self.x, self.p, self.mu = post_x, post_p, mu_post

        # -- combination, from the node values: no loss term reaches it
        x_comb, p_comb = _moment_match(ad.value_of(mu_post), ad.value_of(post_x),
                                       ad.value_of(post_p), axis=-3)
        pred = ad.stack_sum(ad.value_of(mu_pred) * ad.value_of(pred_x))
        return pred, x_comb[..., 0, :, :], p_comb

    def loss(self) -> Var:
        total = sum(self.loss_terms[1:], self.loss_terms[0])
        return ad.reshape(total, total.shape[:-3] + (1, 1))


def _filter(params: ImmParams, tracklets, sensor: SensorConfig, cfg: ImmConfig, record: bool):
    """filter_tracklet over the IMM recursion; the final state is the ImmGraph."""

    def step(graph, z):
        pred, post, cov = graph.step(*z)
        return graph, pred[..., 0], post[..., 0], cov

    return filter_tracklet(
        tracklets, sensor,
        lambda init, dt: ImmGraph(params, init, dt, sensor.origin, cfg, record), step)


def imm_nll(params: ImmParams, tracklet: Tracklet, sensor: SensorConfig,
            cfg: ImmConfig = ImmConfig()):
    """The measurement NLL of one tracklet, recorded on a fresh tape.

    Returns (loss Var, leaves dict) with the recursion initialized from the
    first two measurements; the loss sums the filtered rows (ekf.EVAL_START on).
    """
    graph = _filter(params, tracklet, sensor, cfg, record=True)[3]
    return graph.loss(), graph.leaves


def run_imm(params: ImmParams, tracklets, sensor: SensorConfig, cfg: ImmConfig = ImmConfig()):
    """Filter one tracklet, or a list in lockstep (see ekf.filter_tracklet), on
    plain arrays; returns (pred_means, post_means, post_covs, nll), the values
    imm_nll records on its tape, with an nll per tracklet."""
    pred_means, post_means, post_covs, graph = _filter(params, tracklets, sensor, cfg,
                                                       record=False)
    return pred_means, post_means, post_covs, graph.loss()[..., 0, 0][()]  # a float for one


def run_ekf(tracklets, sensor: SensorConfig, q: float):
    """The CV-EKF with white-noise-acceleration intensity q and the sensor's
    own noise: run_imm with the one mode cv."""
    cfg = ImmConfig(modes=(MODE_CV,), train_r=False)
    return run_imm(default_params(sensor, cfg, init_q=q), tracklets, sensor, cfg)


def train_imm(params0: ImmParams, tracklets, sensor: SensorConfig, steps: int,
              lr: float = 5e-4, seed: int = 0, cfg: ImmConfig = ImmConfig()):
    """Minibatch NLL descent over tracklets (one tracklet per step),
    deterministic given the seed.  Returns (params, history, stopped) as
    ad.minimize does, which stops at a divergence; the loss is one tracklet's NLL.
    """
    if not tracklets:
        raise ValueError("empty training set")
    rng = np.random.default_rng(seed)
    opt = GradientOptimizer(lr=lr)

    def record(params):
        return imm_nll(params, tracklets[int(rng.integers(len(tracklets)))], sensor, cfg)

    def update(params, grads):
        return params.with_dict(opt.step(params.to_dict(train_r=cfg.train_r), grads))

    return ad.minimize(record, params0, update, steps)


# -- serialization (IMM1) ------------------------------------------------------


def save_imm(path, params: ImmParams, dt: float, sensor: SensorConfig) -> None:
    lines = ["IMM1"]
    lines.append("modes " + " ".join(params.modes))
    lines.append(f"dt {dt:.17g}")
    lines.append("sensor " + " ".join(f"{v:.17g}" for v in sensor.to_row()))
    for i, row in enumerate(params.trans_logits):
        lines.append(f"logits_{i} " + " ".join(f"{v:.17g}" for v in row))
    lines.append("log_q " + " ".join(f"{v:.17g}" for v in params.log_q))
    lines.append("omega " + " ".join(f"{v:.17g}" for v in params.omega))
    lines.append(f"log_sigma_r {params.log_sigma_r:.17g}")
    lines.append(f"log_sigma_a {params.log_sigma_a:.17g}")
    trans = params.transition_matrix
    lines.append("# derived transition probabilities:")
    for row in trans:
        lines.append("#   " + "  ".join(f"{v:.4f}" for v in row))
    lines.append("# derived process noise intensities: "
                 + "  ".join(f"{v:.4g}" for v in np.exp(params.log_q)))
    lines.append(f"# derived measurement stds: {np.exp(params.log_sigma_r):.4g} m, "
                 f"{np.exp(params.log_sigma_a):.4g} rad")
    Path(path).write_text("\n".join(lines) + "\n")


def load_imm(path):
    """Returns (params, dt, sensor)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "IMM1":
        raise ValueError(f"{path}: not an IMM1 document")
    fields = {}
    for line in lines[1:]:
        parts = line.split()
        fields[parts[0]] = parts[1:]
    modes = tuple(fields["modes"])
    m = len(modes)
    logits = np.array([[float(v) for v in fields[f"logits_{i}"]] for i in range(m)])
    params = ImmParams(
        modes=modes,
        trans_logits=logits,
        log_q=np.array([float(v) for v in fields["log_q"]]),
        omega=np.array([float(v) for v in fields["omega"]]),
        log_sigma_r=float(fields["log_sigma_r"][0]),
        log_sigma_a=float(fields["log_sigma_a"][0]),
    )
    return params, float(fields["dt"][0]), SensorConfig.from_row(fields["sensor"])
