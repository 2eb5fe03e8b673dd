"""Shared kinematic types and the range-bearing sensor model.

State ordering is fixed to [x1, x2, v1, v2] (meters, meters/second) and is
relied on by every filter in the package.  Bearings live in (-pi, pi].
A filter's state belief is plain arrays: a (4,) mean and a (4, 4) covariance,
or (B, 4) and (B, 4, 4) for a batch of B; ekf.check_estimate validates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, row_prefix

STATE_DIM = 4
TWO_PI = 2.0 * np.pi
LOG_2PI = np.log(TWO_PI)


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.remainder(theta, TWO_PI)
    return np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)


@dataclass(frozen=True)
class Measurement:
    """One polar sensor return: range (m), bearing (rad in (-pi, pi]);
    range and bearing are (B,) arrays for a batch of B tracklets."""

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


def polar_to_cartesian(r, bearing, sensor: SensorConfig) -> np.ndarray:
    """Invert measure(): place ranges and bearings of any one shape back into
    the plane, as that shape plus a trailing (x, y) axis."""
    return np.stack([r * np.cos(bearing) + sensor.origin[0],
                     r * np.sin(bearing) + sensor.origin[1]], axis=-1)


def measurement_noise_cartesian(m: Measurement, sensor: SensorConfig) -> np.ndarray:
    """Polar noise covariance propagated to Cartesian coordinates at measurement m."""
    c, s = np.cos(m.bearing), np.sin(m.bearing)
    jac = np.stack([c, -m.range * s, s, m.range * c], axis=-1).reshape(*np.shape(c), 2, 2)
    return jac @ sensor.noise_cov @ jac.swapaxes(-1, -2)
