"""Constant-velocity EKF benchmark and the shared range-bearing update.

The update routine here (Joseph-form covariance) is reused by the IMM and
the LSTM filter, so its numerical hygiene carries the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericsError
from .statespace import (
    Measurement,
    SensorConfig,
    StateEstimate,
    measure,
    measure_jacobian,
    measurement_noise_cartesian,
    polar_to_cartesian,
    wrap_angle,
)

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class CwnaModel:
    """Constant-velocity transition with white-noise-acceleration process noise."""

    dt: float
    q: float  # noise intensity, m^2/s^3

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.q < 0.0:
            raise ValueError("q must be non-negative")

    @property
    def transition(self) -> np.ndarray:
        f = np.eye(4)
        f[0, 2] = self.dt
        f[1, 3] = self.dt
        return f

    @property
    def process_noise(self) -> np.ndarray:
        dt = self.dt
        q_pp = self.q * dt**3 / 3.0
        q_pv = self.q * dt**2 / 2.0
        q_vv = self.q * dt
        q = np.zeros((4, 4))
        q[0, 0] = q[1, 1] = q_pp
        q[2, 2] = q[3, 3] = q_vv
        q[0, 2] = q[2, 0] = q[1, 3] = q[3, 1] = q_pv
        return q


def predict_cwna(prior: StateEstimate, model: CwnaModel) -> StateEstimate:
    """Markov prediction under the CV model: mean F x, covariance F P F' + Q."""
    f = model.transition
    mean = f @ prior.mean
    cov = f @ prior.cov @ f.T + model.process_noise
    return StateEstimate(mean=mean, cov=0.5 * (cov + cov.T), t=prior.t + 1)


def ekf_update(pred: StateEstimate, z: Measurement, sensor: SensorConfig):
    """Range-bearing EKF update with Joseph-form covariance.

    Returns (posterior, innovation, innovation covariance).  The bearing
    residual is wrapped into (-pi, pi] before use.
    """
    r_pred, a_pred = measure(pred.position, sensor)
    jac = measure_jacobian(pred.mean, sensor)
    innovation = np.array([z.range - r_pred, wrap_angle(z.bearing - a_pred)])
    s = jac @ pred.cov @ jac.T + sensor.noise_cov
    try:
        s_fac = cho_factor(s, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"innovation covariance not positive definite: {exc}") from exc
    gain = cho_solve(s_fac, jac @ pred.cov).T
    mean = pred.mean + gain @ innovation
    i_kh = np.eye(4) - gain @ jac
    cov = i_kh @ pred.cov @ i_kh.T + gain @ sensor.noise_cov @ gain.T
    post = StateEstimate(mean=mean, cov=0.5 * (cov + cov.T), t=pred.t)
    return post, innovation, s


def nll_term(innovation: np.ndarray, s: np.ndarray) -> float:
    """Negative log density of one Gaussian innovation: 0.5 (v' S^-1 v + log det S + 2 log 2pi)."""
    try:
        s_fac = cho_factor(s, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"innovation covariance not positive definite: {exc}") from exc
    quad = float(innovation @ cho_solve(s_fac, innovation))
    logdet = 2.0 * float(np.sum(np.log(np.diag(s_fac[0]))))
    return 0.5 * (quad + logdet + 2.0 * LOG_2PI)


def init_track(z0: Measurement, z1: Measurement, sensor: SensorConfig, dt: float) -> StateEstimate:
    """Two-point track initialization from the first two measurements.

    Position is the second converted point, velocity its finite difference;
    the covariance is the exact propagation of both polar noise covariances
    through that linear map.
    """
    p0 = polar_to_cartesian(z0, sensor)
    p1 = polar_to_cartesian(z1, sensor)
    r0 = measurement_noise_cartesian(z0, sensor)
    r1 = measurement_noise_cartesian(z1, sensor)
    mean = np.concatenate([p1, (p1 - p0) / dt])
    cov = np.zeros((4, 4))
    cov[:2, :2] = r1
    cov[:2, 2:] = r1 / dt
    cov[2:, :2] = r1 / dt
    cov[2:, 2:] = (r0 + r1) / dt**2
    return StateEstimate(mean=mean, cov=cov, t=z1.t)


def run_ekf(tracklet, sensor: SensorConfig, model: CwnaModel):
    """Filter one tracklet; returns (pred_means, post_means, total_nll).

    Rows 0 and 1 of the outputs hold the initialization estimate (the first
    two measurements are consumed by init_track); filtering starts at t=2.
    """
    n = len(tracklet)
    est = init_track(tracklet.measurement(0), tracklet.measurement(1), sensor, model.dt)
    pred_means = np.full((n, 4), np.nan)
    post_means = np.full((n, 4), np.nan)
    pred_means[:2] = est.mean
    post_means[:2] = est.mean
    total_nll = 0.0
    for t in range(2, n):
        pred = predict_cwna(est, model)
        est, innovation, s = ekf_update(pred, tracklet.measurement(t), sensor)
        pred_means[t] = pred.mean
        post_means[t] = est.mean
        total_nll += nll_term(innovation, s)
    return pred_means, post_means, total_nll

