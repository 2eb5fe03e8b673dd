"""Shared kinematic types and the range-bearing sensor model.

State ordering is fixed to [x1, x2, v1, v2] (meters, meters/second) and is
relied on by every filter in the package.  A filter's state belief is plain
arrays: a (4,) mean and a (4, 4) covariance, or (B, 4) and (B, 4, 4) for a
batch of B; ekf.check_estimate validates them.

A measurement is a (range, bearing) row of Tracklet.meas: a (2,) array, or
(2, B) for a batch of B tracklets stepped in lockstep.  Tracklet checks its
rows once, at construction: a negative range is a RowError naming the row,
and every bearing is wrapped into (-pi, pi], so the filters take rows as
they are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, RowError

STATE_DIM = 4
TWO_PI = 2.0 * np.pi
LOG_2PI = np.log(TWO_PI)


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.remainder(theta, TWO_PI)
    return np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)


@dataclass(frozen=True)
class SensorConfig:
    """Range-bearing sensor: position and noise standard deviations (m, rad).
    The defaults are the CLI's [sensor] defaults."""

    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))
    sigma_r: float = 1.5
    sigma_a: float = 0.00523

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(2))
        if not np.isfinite(self.origin).all():
            raise ValueError(f"sensor origin must be finite, got {self.origin}")
        if not (0.0 < self.sigma_r < np.inf and 0.0 < self.sigma_a < np.inf):
            raise ValueError("sensor noise stds must be positive and finite, got "
                             f"{self.sigma_r}, {self.sigma_a}")

    @property
    def noise_cov(self) -> np.ndarray:
        return np.diag([self.sigma_r**2, self.sigma_a**2])

    def to_row(self) -> np.ndarray:
        """(origin x, origin y, sigma_r, sigma_a): the sensor row model files store."""
        return np.array([self.origin[0], self.origin[1], self.sigma_r, self.sigma_a])

    @classmethod
    def from_row(cls, row) -> "SensorConfig":
        """The sensor of a to_row row."""
        x, y, sigma_r, sigma_a = (float(v) for v in row)
        return cls(origin=(x, y), sigma_r=sigma_r, sigma_a=sigma_a)


@dataclass
class Tracklet:
    """Fixed-length trajectory segment: truth states and matched measurements.

    truth is a (T, 4) array of state means; meas a (T, 2) array of
    (range, bearing) rows, one per step, held as a copy whose bearings are
    wrapped into (-pi, pi].  A negative range is a RowError naming its row;
    a NaN row (truth without measurements yet) passes.  Time indices run 0..T-1.
    """

    dt: float
    truth: np.ndarray
    meas: np.ndarray

    def __post_init__(self):
        self.truth = np.asarray(self.truth, dtype=float)
        self.meas = np.array(self.meas, dtype=float)
        if self.truth.ndim != 2 or self.truth.shape[1] != STATE_DIM:
            raise ValueError(f"truth must be (T, {STATE_DIM}), got {self.truth.shape}")
        if self.meas.shape != (len(self.truth), 2):
            raise ValueError("meas must align with truth, one (range, bearing) row per step")
        if (negative := self.meas[:, 0] < 0.0).any():
            row = int(np.argmax(negative))
            raise RowError(row, f"negative range {self.meas[row, 0]:g}")
        self.meas[:, 1] = wrap_angle(self.meas[:, 1])

    def __len__(self) -> int:
        return len(self.truth)


def measure(state_pos, sensor: SensorConfig):
    """Noiseless range and bearing of a position, relative to the sensor origin."""
    dx, dy = np.asarray(state_pos, dtype=float).reshape(2) - sensor.origin
    r_sq = dx * dx + dy * dy
    if r_sq == 0.0:
        raise GeometryError("target position coincides with the sensor origin")
    return np.sqrt(r_sq), np.arctan2(dy, dx)


def polar_to_cartesian(r, bearing, sensor: SensorConfig) -> np.ndarray:
    """Invert measure(): place ranges and bearings of any one shape back into
    the plane, as that shape plus a trailing (x, y) axis."""
    return np.stack([r * np.cos(bearing) + sensor.origin[0],
                     r * np.sin(bearing) + sensor.origin[1]], axis=-1)


def measurement_noise_cartesian(r, bearing, sensor: SensorConfig) -> np.ndarray:
    """Polar noise covariance propagated to Cartesian coordinates at ranges r
    and bearings of any one shape, as that shape plus a trailing (2, 2)."""
    c, s = np.cos(bearing), np.sin(bearing)
    jac = np.stack([c, -r * s, s, r * c], axis=-1).reshape(*np.shape(c), 2, 2)
    return jac @ sensor.noise_cov @ jac.swapaxes(-1, -2)
