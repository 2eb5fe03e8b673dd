"""The shared constant-velocity model, range-bearing update and step loop.

The CV model and the Joseph-form update are written once here, against the
autodiff functions; the range-bearing measurement model and the Gaussian
innovation NLL are autodiff nodes themselves (ad.range_bearing and
ad.gaussian_nll), as are the update's quadratic forms and symmetrisation, so
a recorded step stays small.  The IMM runs them once per step on its stack
of modes (imm.ImmGraph.step), on arrays to filter and on its tape to train,
and the LSTM filter calls joseph_update on arrays.  Their numerical hygiene
therefore carries the whole package.  There is no separate EKF filter: the
EKF benchmark is the IMM with one cv mode (imm.run_ekf), whose mixing
weight is 1 and spread term 0.

The step loop is also written once, here: filter_tracklet owns the
two-point initialization, the rows every filter reports and the first
filtered row EVAL_START, for the EKF, the IMM, the LSTM filter and the GP
particle filter alike, and checks every row they report (check_estimate,
once per run).
Given B tracklets, it steps them in lockstep: states, measurements and
outputs gain a leading batch axis, so each step runs once on stacks of B
matrices, with the bits of filtering each tracklet alone.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
# the range-bearing sensor model and the innovation NLL are autodiff nodes; the
# filters import them from here
from .autodiff import gaussian_nll, range_bearing
from .errors import NumericsError, row_prefix
from .statespace import (
    SensorConfig,
    Tracklet,
    measurement_noise_cartesian,
    polar_to_cartesian,
    wrap_angle,
)

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


def joseph_update(x, p, z_range, z_bearing, r_noise, origin: np.ndarray):
    """Range-bearing EKF update of a 4x1 mean x and 4x4 covariance p.

    r_noise is the 2x2 measurement noise covariance; on stacks z holds one
    value per batch row, the same for every matrix of the row's further stack
    axes (the IMM's modes).  The bearing residual is wrapped into (-pi, pi];
    Joseph form.  Returns (posterior mean, posterior covariance, 2x1
    innovation, S).
    """
    h, jac = range_bearing(x, origin)
    z = np.stack([z_range, z_bearing], axis=-1)  # one (range, bearing) per batch row
    z = z.reshape(z.shape[:-1] + (1,) * (len(x.shape) - z.ndim - 1) + (2, 1))
    raw = z[..., 1:, :] - ad.value_of(h)[..., 1:, :]  # the bearing residual
    wrap = np.zeros(raw.shape[:-2] + (2, 1))  # what wrapping it adds, as a constant
    wrap[..., 1:, :] = wrap_angle(raw) - raw
    nu = -(h - z) + wrap
    s = ad.quad_form(jac, p) + r_noise
    k = ad.transpose(ad.cho_solve(s, jac @ p))
    x_post = x + k @ nu
    i_kh = ad.const_like(x, _EYE4) - k @ jac
    p_post = ad.symmetrize(ad.quad_form(i_kh, p) + ad.quad_form(k, r_noise))
    return x_post, p_post, nu, s


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
    min_eig = np.linalg.eigvalsh(ad.symmetrize(cov)).min(axis=-1)
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
    initialization, and then every step's row in one call after the loop, so
    each filter's output is held to the same test.  The first fault in step
    order, a step's NumericsError, ValueError or LinAlgError or a row the
    check refuses (each row before a step that raised is checked), is raised
    again as NumericsError("step <row>: ..."), then "row <b>: " when a check
    names tracklet b, and no row for one tracklet, whatever further stack
    axes its check had.  Returns (pred_means, post_means, post_covs, state).
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
    rows, fault = [], None
    state = start((mean, cov), dt)
    for t in range(EVAL_START, len(meas)):
        try:
            state, pred, post, post_cov = step(state, meas[t])
        except (NumericsError, ValueError, np.linalg.LinAlgError) as exc:
            fault = t, exc
            break
        rows.append((pred, post, post_cov))
    time_axis = mean.ndim - 1  # after the batch axis, if any
    columns = [np.stack(column, axis=time_axis) for column in zip(*rows)]
    if fault is None:
        try:
            check_estimate(columns[1], columns[2], columns[0])
        except ValueError:
            pass
        else:
            return (*columns, state)
    for t, (pred, post, post_cov) in enumerate(rows, EVAL_START):  # the first row refused
        try:
            check_estimate(post, post_cov, pred)
        except ValueError as exc:
            fault = t, exc
            break
    t, exc = fault
    cause = exc.cause if single and getattr(exc, "rows", None) is not None else exc
    raise NumericsError(f"step {t}: {cause}") from exc
