"""The shared constant-velocity model, range-bearing update and step loop.

The CV model, the range-bearing measurement model, the Joseph-form update
and the Gaussian innovation NLL are written once here, against the autodiff
functions.  The IMM runs them once per step on its stack of modes
(imm.ImmGraph.step), on arrays to filter and on its tape to train, and the
LSTM filter calls joseph_update on arrays.  Their numerical hygiene
therefore carries the whole package.  There is no separate EKF filter: the
EKF benchmark is the IMM with one cv mode (imm.run_ekf), whose mixing
weight is 1 and spread term 0.

The step loop is also written once, here: filter_tracklet owns the
two-point initialization, the rows every filter reports and the first
filtered row EVAL_START, for the EKF, the IMM, the LSTM filter and the GP
particle filter alike, and checks every row they report (check_estimate).
Given B tracklets, it steps them in lockstep: states, measurements and
outputs gain a leading batch axis, so each step runs once on stacks of B
matrices, with the bits of filtering each tracklet alone.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import NumericsError, row_prefix
from .statespace import (
    LOG_2PI,
    SensorConfig,
    Tracklet,
    measurement_noise_cartesian,
    polar_to_cartesian,
    wrap_angle,
)

# templates for assembling the 2x4 range-bearing Jacobian from its entries
_H00 = np.zeros((2, 4)); _H00[0, 0] = 1.0
_H01 = np.zeros((2, 4)); _H01[0, 1] = 1.0
_H10 = np.zeros((2, 4)); _H10[1, 0] = 1.0
_H11 = np.zeros((2, 4)); _H11[1, 1] = 1.0
_EYE4 = np.eye(4)

EVAL_START = 2  # first filtered and scored row; rows 0 and 1 feed init_track


def cv_transition(dt: float) -> np.ndarray:
    """Constant-velocity transition matrix over one step of dt."""
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    return f


def wna_template(dt: float) -> np.ndarray:
    """White-noise-acceleration process noise over dt at unit intensity."""
    q = np.zeros((4, 4))
    q[0, 0] = q[1, 1] = dt**3 / 3.0
    q[2, 2] = q[3, 3] = dt
    q[0, 2] = q[2, 0] = q[1, 3] = q[3, 1] = dt**2 / 2.0
    return q


def range_bearing(x, origin: np.ndarray):
    """(range, bearing, 2x4 Jacobian) of a 4x1 state column x, or of each
    column of a stack, seen from origin.

    Raises NumericsError when the state coincides with the origin.
    """
    dx = ad.item(x, 0, 0) - float(origin[0])
    dy = ad.item(x, 1, 0) - float(origin[1])
    r_sq = dx * dx + dy * dy
    at_origin = ad.value_of(r_sq)[..., 0, 0] == 0.0
    if at_origin.any():
        raise NumericsError("state coincides with the sensor origin", at_origin)
    r = ad.sqrt(r_sq)
    bearing = ad.atan2(dy, dx)
    jac = (dx / r) * _H00 + (dy / r) * _H01 + (-(dy / r_sq)) * _H10 + (dx / r_sq) * _H11
    return r, bearing, jac


def joseph_update(x, p, z_range, z_bearing, r_noise, origin: np.ndarray):
    """Range-bearing EKF update of a 4x1 mean x and 4x4 covariance p.

    r_noise is the 2x2 measurement noise covariance; on stacks z holds one
    value per batch row, the same for every matrix of the row's further stack
    axes (the IMM's modes).  The bearing residual is wrapped into (-pi, pi];
    Joseph form.  Returns (posterior mean, posterior covariance, 2x1
    innovation, S).
    """
    if np.ndim(z_range):
        unit = (1,) * (len(x.shape) - np.ndim(z_range))
        z_range, z_bearing = (np.reshape(z, np.shape(z) + unit) for z in (z_range, z_bearing))
    r, bearing, jac = range_bearing(x, origin)
    dr = -(r - z_range)
    raw = z_bearing - ad.value_of(bearing)
    da = (-(bearing - z_bearing)) + (wrap_angle(raw) - raw)
    nu = ad.concat_rows([dr, da])
    s = jac @ p @ ad.transpose(jac) + r_noise
    k = ad.transpose(ad.cho_solve(s, jac @ p))
    x_post = x + k @ nu
    i_kh = ad.const_like(x, _EYE4) - k @ jac
    p_post = i_kh @ p @ ad.transpose(i_kh) + k @ r_noise @ ad.transpose(k)
    p_post = (p_post + ad.transpose(p_post)) * 0.5
    return x_post, p_post, nu, s


def gaussian_nll(nu, s):
    """Negative log density of a 2x1 Gaussian innovation nu with covariance s:
    0.5 (nu' s^-1 nu + log det s + 2 log 2pi)."""
    quad = ad.vsum(nu * ad.cho_solve(s, nu))
    return (quad + ad.logdet(s) + 2.0 * LOG_2PI) * 0.5


def check_estimate(mean, cov, pred=None):
    """Raise ValueError unless a state belief is sane: mean (and the predicted
    mean pred, if given) finite, and cov finite, symmetric and PSD.  On a batch
    of beliefs the message names the first failing row ("row <b>: ")."""
    peak = np.abs(cov).max(axis=(-2, -1))  # NaN where cov holds a NaN
    finite = np.isfinite(mean).all(axis=-1)
    if pred is not None:
        finite &= np.isfinite(pred).all(axis=-1)
    bad = ~(np.isfinite(peak) & finite)
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


def init_track(z0, z1, sensor: SensorConfig, dt: float):
    """Two-point track initialization from the first two (range, bearing)
    rows, each (2,), or (2, B) for a batch.

    Position is the second converted point, velocity its finite difference;
    the covariance is the exact propagation of both polar noise covariances
    through that linear map.  Returns (mean, cov).
    """
    p0, p1 = (polar_to_cartesian(*z, sensor) for z in (z0, z1))
    r0, r1 = (measurement_noise_cartesian(*z, sensor) for z in (z0, z1))
    mean = np.concatenate([p1, (p1 - p0) / dt], axis=-1)
    cov = np.block([[r1, r1 / dt], [r1 / dt, (r0 + r1) / dt**2]])
    return mean, cov


def check_lockstep(tracklets) -> None:
    """Raise ValueError unless a list of tracklets shares one length and one dt."""
    if len({(len(trk), trk.dt) for trk in tracklets}) != 1:
        raise ValueError("tracklets filtered in lockstep must share one length and one dt")


def filter_tracklet(tracklets, sensor: SensorConfig, start, step):
    """Run one filter from the two-point initialization over one Tracklet, or
    over a list of B Tracklets in lockstep, with a leading batch axis on init,
    every z and every output (row b is tracklets[b]).

    start(init, dt) turns the init_track (mean, cov) into the filter's state,
    and step(state, z) filters the (range, bearing) row z into (state,
    predicted mean, posterior mean, posterior covariance).  The outputs hold
    the filtered rows, EVAL_START on.  check_estimate checks the
    initialization and every step's row, so each filter's output is held to
    the same test.  A step's NumericsError, ValueError or LinAlgError, the
    check's included, is raised again as NumericsError("step <row>: ..."),
    then "row <b>: " when a check names tracklet b, and no row for one
    tracklet, whatever further stack axes its check had.  Returns
    (pred_means, post_means, post_covs, state).
    """
    single = isinstance(tracklets, Tracklet)
    if not single:
        check_lockstep(tracklets)
    dt = (tracklets if single else tracklets[0]).dt
    # row t unpacks into (range, bearing): two floats, or two (B,) arrays from (T, 2, B)
    meas = tracklets.meas if single else np.stack([trk.meas for trk in tracklets], axis=-1)
    if len(meas) <= EVAL_START:
        raise ValueError(f"need at least {EVAL_START + 1} measurements")
    mean, cov = init_track(meas[0], meas[1], sensor, dt)
    check_estimate(mean, cov)
    rows = []
    state = start((mean, cov), dt)
    for t in range(EVAL_START, len(meas)):
        try:
            state, pred, post, post_cov = step(state, meas[t])
            check_estimate(post, post_cov, pred)
        except (NumericsError, ValueError, np.linalg.LinAlgError) as exc:
            cause = exc.cause if single and getattr(exc, "rows", None) is not None else exc
            raise NumericsError(f"step {t}: {cause}") from exc
        rows.append((pred, post, post_cov))
    time_axis = mean.ndim - 1  # after the batch axis, if any
    pred_means, post_means, post_covs = (np.stack(column, axis=time_axis) for column in zip(*rows))
    return pred_means, post_means, post_covs, state
