"""Shared kinematic types and the range-bearing sensor model.

State ordering is fixed to [x1, x2, v1, v2] (meters, meters/second) and is
relied on by every filter in the package.  Bearings live in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, row_prefix

STATE_DIM = 4
TWO_PI = 2.0 * np.pi
LOG_2PI = np.log(TWO_PI)

# Projects a 4-D state onto its velocity components.
VEL_PROJECTION = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.remainder(theta, TWO_PI)
    return np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)


@dataclass(frozen=True)
class StateEstimate:
    """Gaussian state belief: 4-D mean, 4x4 covariance, integer time index;
    a batch of B beliefs has (B, 4) means and (B, 4, 4) covariances."""

    mean: np.ndarray
    cov: np.ndarray
    t: int = 0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        mean = mean.reshape(*mean.shape[:-1], STATE_DIM)
        cov = np.asarray(self.cov, dtype=float).reshape(*mean.shape[:-1], STATE_DIM, STATE_DIM)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        peak = np.abs(cov).max(axis=(-2, -1))  # NaN where cov holds a NaN
        bad = ~(np.isfinite(peak) & np.isfinite(mean).all(axis=-1))
        if bad.any():
            raise ValueError(f"{row_prefix(bad)}state estimate is not finite")
        # np.allclose(cov, cov.T, rtol=0, atol=...)'s verdict on a finite cov, without its overhead
        cov_t = cov.swapaxes(-1, -2)
        bad = ~(np.abs(cov - cov_t).max(axis=(-2, -1)) <= 1e-9 * np.maximum(1.0, peak))
        if bad.any():
            raise ValueError(f"{row_prefix(bad)}covariance is not symmetric")
        min_eig = np.linalg.eigvalsh(0.5 * (cov + cov_t)).min(axis=-1)
        bad = min_eig < -1e-9 * np.maximum(np.trace(cov, axis1=-2, axis2=-1), 1.0)
        if bad.any():
            raise ValueError(f"{row_prefix(bad)}covariance is not PSD "
                             f"(min eigenvalue {np.ravel(min_eig)[np.argmax(bad)]:g})")

    @property
    def position(self) -> np.ndarray:
        return self.mean[..., :2]

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[..., 2:]


@dataclass(frozen=True)
class Measurement:
    """One polar sensor return: time index, range (m), bearing (rad in (-pi, pi]);
    range and bearing are (B,) arrays for a batch of B tracklets."""

    t: int
    range: float
    bearing: float

    def __post_init__(self):
        bad = np.less(self.range, 0.0)
        if bad.any():
            raise ValueError(f"{row_prefix(bad)}negative range {self.range}")
        object.__setattr__(self, "bearing", wrap_angle(self.bearing)[()])  # 0-d to a float


@dataclass(frozen=True)
class SensorConfig:
    """Range-bearing sensor: position and noise standard deviations (m, rad).
    The defaults are the CLI's [sensor] defaults."""

    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sigma_r: float = 1.5
    sigma_a: float = 0.00523

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(2))
        if self.sigma_r <= 0.0 or self.sigma_a <= 0.0:
            raise ValueError("sensor noise stds must be positive")

    @property
    def noise_cov(self) -> np.ndarray:
        return np.diag([self.sigma_r**2, self.sigma_a**2])


@dataclass
class Tracklet:
    """Fixed-length trajectory segment: truth states and matched measurements.

    truth is a (T, 4) array of state means; meas a (T, 2) array of
    (range, bearing) rows, one per step.  Time indices run 0..T-1.
    """

    dt: float
    truth: np.ndarray
    meas: np.ndarray

    def __post_init__(self):
        self.truth = np.asarray(self.truth, dtype=float)
        self.meas = np.asarray(self.meas, dtype=float)
        if self.truth.ndim != 2 or self.truth.shape[1] != STATE_DIM:
            raise ValueError(f"truth must be (T, {STATE_DIM}), got {self.truth.shape}")
        if self.meas.shape != (len(self.truth), 2):
            raise ValueError("meas must align with truth, one (range, bearing) row per step")

    def __len__(self) -> int:
        return len(self.truth)


def measure(state_pos, sensor: SensorConfig):
    """Noiseless range and bearing of a position, relative to the sensor origin."""
    pos = np.asarray(state_pos, dtype=float).reshape(2)
    dx = pos[0] - sensor.origin[0]
    dy = pos[1] - sensor.origin[1]
    r_sq = dx * dx + dy * dy
    if r_sq == 0.0:
        raise GeometryError("target position coincides with the sensor origin")
    return np.sqrt(r_sq), np.arctan2(dy, dx)


def polar_to_cartesian(m: Measurement, sensor: SensorConfig) -> np.ndarray:
    """Invert measure(): place a (range, bearing) pair back into the plane."""
    unit = np.stack([np.cos(m.bearing), np.sin(m.bearing)], axis=-1)
    return sensor.origin + np.expand_dims(m.range, -1) * unit


def polar_rows_to_cartesian(meas_rows: np.ndarray, sensor: SensorConfig) -> np.ndarray:
    """Vectorized polar_to_cartesian over (T, 2) rows of (range, bearing)."""
    rows = np.asarray(meas_rows, dtype=float)
    xy = np.stack([rows[:, 0] * np.cos(rows[:, 1]), rows[:, 0] * np.sin(rows[:, 1])], axis=1)
    return xy + sensor.origin


def measurement_noise_cartesian(m: Measurement, sensor: SensorConfig) -> np.ndarray:
    """Polar noise covariance propagated to Cartesian coordinates at measurement m."""
    c, s = np.cos(m.bearing), np.sin(m.bearing)
    jac = np.stack([c, -m.range * s, s, m.range * c], axis=-1).reshape(*np.shape(c), 2, 2)
    return jac @ sensor.noise_cov @ jac.swapaxes(-1, -2)
