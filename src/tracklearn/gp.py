"""Gaussian-process velocity model and the particle filter built on it.

Two independent GPs (one per Cartesian axis) map the previous velocity pair
to the next per-axis velocity.  A squared-exponential kernel is used; the
three hyperparameters are refined by log-marginal-likelihood ascent on the
autodiff tape.  Online, a sequential importance resampling filter draws
velocity particles from the GP posterior and weighs positions against the
range-bearing likelihood.  The filter steps one particle cloud, or a batch
of B clouds (one per test tracklet) on a leading axis in lockstep; each
cloud draws from its own random stream, in the order it would alone, and
decides for itself when to reseed.  Every cloud is resampled at every step,
which leaves it with runs of equal velocities side by side; the GP posterior
is predicted once per run (predict_axes) and spread back to its particles.
The mean is still taken on the full-width kernel, whose summation order
keeps the bits of predicting every particle.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve as _np_cho_solve
from scipy.linalg.blas import dtrsm

from . import autodiff as ad
from .autodiff import GradientOptimizer
from .errors import NumericsError, WeightCollapseError, row_prefix
from .statespace import (
    LOG_2PI,
    Measurement,
    SensorConfig,
    measurement_noise_cartesian,
    polar_to_cartesian,
    wrap_angle,
)


@dataclass(frozen=True)
class GpHyper:
    sigma0_sq: float = 1.0  # signal variance
    length_sq: float = 1.0  # squared kernel length scale
    noise_sq: float = 0.01  # observation noise variance

    def __post_init__(self):
        if min(self.sigma0_sq, self.length_sq, self.noise_sq) <= 0.0:
            raise ValueError("GP hyperparameters must be positive")


# the largest argument at which np.exp returns exactly 0.0 (exp(x) < 2**-1075)
EXP_ZERO_AT = -745.1332191019412


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of the (N, 2) a and the
    (M, 2) b, as an (N, M) array."""
    d0 = a[:, 0, None] - b[:, 0]
    d1 = a[:, 1, None] - b[:, 1]
    d0 *= d0
    d1 *= d1
    d0 += d1
    return d0


def kernel_matrix(a: np.ndarray, b: np.ndarray, hyper: GpHyper, sq=None) -> np.ndarray:
    """Kernel between the rows of a and b; sq, their squared distances, if known.
    Computed in place, so no (N, M) temporary outlives the expression.

    exp is taken only where it does not underflow to 0.0, and 0.0 is written
    elsewhere: the same bits, but np.exp is many times slower on an argument
    whose result underflows, and with a short fitted length scale most do.
    """
    arg = -0.5 * (sq_distances(a, b) if sq is None else sq)
    arg /= hyper.length_sq
    zero = arg <= EXP_ZERO_AT  # false for NaN, whose exp stays NaN
    np.exp(arg, out=arg, where=~zero)
    np.copyto(arg, 0.0, where=zero)
    arg *= hyper.sigma0_sq
    return arg


@dataclass(frozen=True)
class HyperFit:
    """One axis's hyperparameter ascent (fit_hyper): what it returned, and how it went."""
    hyper: GpHyper
    history: list  # ad.minimize's (step, loss) rows
    stopped: dict | None  # ad.minimize's early stop; None after every step ran
    fell_back: bool  # hyper is hyper0: the ascent stopped or never improved on its first loss


class GpModel:
    """One fitted per-axis GP: cached Cholesky factor and solve vector.
    hyper_fit is the ascent that chose hyper (None when hyper was given or loaded)."""

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray, hyper: GpHyper,
                 hyper_fit: HyperFit | None = None):
        self.inputs = np.asarray(inputs, dtype=float)
        self.outputs = np.asarray(outputs, dtype=float).reshape(-1)
        if self.inputs.ndim != 2 or self.inputs.shape[1] != 2:
            raise ValueError("GP inputs must be (N, 2) velocity pairs")
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must align")
        self.hyper = hyper
        self.hyper_fit = hyper_fit
        gram = kernel_matrix(self.inputs, self.inputs, hyper)
        gram[np.diag_indices_from(gram)] += hyper.noise_sq
        try:
            self.chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                "K + noise_sq*I is not positive definite; raise noise_sq "
                f"(jitter of {1e-8 * gram[0, 0]:.3g} would likely suffice): {exc}"
            ) from exc
        self.solve_vector = _np_cho_solve((self.chol, True), self.outputs)

    def __len__(self) -> int:
        return len(self.outputs)

    def predict_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Zero-mean GP posterior at each query row; variance clipped to [0, k**]."""
        return predict_axes((self,), queries)[0]


def predict_axes(models, queries: np.ndarray) -> list:
    """predict_batch of models fitted on the same inputs (as gp_fit and load_gp
    make them): the distances are computed once, and a model with the previous
    one's hyperparameters reuses its kernel and variances; only its mean is new.

    A query row equal to the row before it is a copy: the posterior is a pure
    function of the query, so the distances, kernel, triangular solve and
    variances are computed once per run of copies (after pf_resample, copies of
    a particle sit side by side) and spread back to every row.  Copies that are
    not adjacent are computed twice, which gives the same values.  The mean's
    GEMV sums in an order that depends on the width of the kernel it is given,
    so it runs on the kernel gathered back to full width, which keeps the bits
    of predicting every row on its own.
    """
    new = np.ones(len(queries), dtype=bool)  # the first row of each run of copies
    new[1:] = ~(queries[1:] == queries[:-1]).all(axis=1)
    run = np.cumsum(new) - 1  # row -> its run's distinct row
    distinct = queries[new]
    sq = sq_distances(models[0].inputs, distinct)  # (N, D)
    out, hyper = [], None
    for model in models:
        if model.hyper != hyper:
            hyper, k_full = model.hyper, None  # free the last kernel before the next
            k_star = kernel_matrix(model.inputs, distinct, hyper, sq)
            # half = L^-1 k_star: chol.T is L' in Fortran order, so BLAS takes it
            # uncopied as an upper factor, transposed (as solve_triangular did)
            half = dtrsm(1.0, model.chol.T, k_star, trans_a=1)
            variances = np.clip(hyper.sigma0_sq - np.einsum("nm,nm->m", half, half),
                                0.0, hyper.sigma0_sq)[run]
            # np.take keeps C order (k_star[:, run] would not, and the GEMV would
            # sum differently); half is freed before the gather, k_star after it
            half = None
            k_full, k_star = np.take(k_star, run, axis=1), None
        out.append((k_full.T @ model.solve_vector, variances))
    return out


def velocity_pairs(tracklets) -> tuple[np.ndarray, np.ndarray]:
    """Stack (previous velocity pair, next velocity) training rows from truth."""
    ins, outs = [], []
    for trk in tracklets:
        vel = trk.truth[:, 2:4]
        ins.append(vel[:-1])
        outs.append(vel[1:])
    return np.concatenate(ins), np.concatenate(outs)


def negative_lml(s0, l2, sv, sq: np.ndarray, y_col: np.ndarray):
    """Negative log marginal likelihood of the N x 1 outputs y_col under the
    squared-exponential GP, given the N x N squared input distances sq.

    s0, l2 and sv (signal variance, squared length scale, noise variance) are
    1x1 Vars, which record the objective on their tape, or 1x1 arrays.
    """
    n_pts = len(y_col)
    arg = ad.const_like(l2, -0.5 * sq) * (1.0 / l2)
    gram = s0 * ad.exp(arg) + ad.scale_template(sv, np.eye(n_pts))
    alpha = ad.cho_solve(gram, ad.const_like(s0, y_col))
    quad = ad.vsum(ad.const_like(s0, y_col) * alpha)
    return 0.5 * quad + 0.5 * ad.logdet(gram) + 0.5 * n_pts * LOG_2PI


def _subsample(inputs: np.ndarray, outputs: np.ndarray, size: int, seed: int):
    """(inputs, outputs) cut to size rows drawn uniformly, in their order; whole
    when they have no more than size rows."""
    if len(inputs) <= size:
        return inputs, outputs
    keep = np.sort(np.random.default_rng(seed).choice(len(inputs), size=size, replace=False))
    return inputs[keep], outputs[keep]


def fit_hyper(inputs: np.ndarray, outputs: np.ndarray, hyper0: GpHyper,
              steps: int = 200, lr: float = 1e-2, max_points: int = 400,
              seed: int = 0) -> HyperFit:
    """Refine hyperparameters by LML ascent (Adam on the log-parameters).

    The fit's hyper is that of the first step whose loss is least; it falls
    back to hyper0 when the ascent fails to improve the objective or hits a
    numerical failure.
    """
    inputs, outputs = _subsample(inputs, outputs, max_points, seed)
    sq = sq_distances(inputs, inputs)
    y_col = outputs.reshape(-1, 1)

    rhos = []  # the log-parameters of each step, in history order

    def record(params):
        rhos.append(params["rho"])
        tape = ad.make_tape()
        leaf = ad.var(tape, params["rho"].reshape(1, 3))
        s0, l2, sv = (ad.exp(ad.item(leaf, 0, k)) for k in range(3))
        return negative_lml(s0, l2, sv, sq, y_col), {"rho": leaf}

    rho0 = np.log([hyper0.sigma0_sq, hyper0.length_sq, hyper0.noise_sq])
    _, history, stopped = ad.minimize(record, {"rho": rho0}, GradientOptimizer(lr=lr).step, steps)
    losses = [loss for _, loss in history]
    if stopped or not losses or min(losses) >= losses[0]:
        return HyperFit(hyper0, history, stopped, fell_back=True)
    s0, l2, sv = np.exp(rhos[losses.index(min(losses))])
    return HyperFit(GpHyper(sigma0_sq=float(s0), length_sq=float(l2), noise_sq=float(sv)),
                    history, stopped, fell_back=False)


def gp_fit(tracklets, hyper0: GpHyper | None = None, max_pairs: int = 2000,
           optimize: bool = True, seed: int = 0) -> tuple[GpModel, GpModel]:
    """Fit the per-axis velocity GPs from training tracklets; with optimize,
    each model's hyper_fit holds its axis's hyperparameter ascent.

    Training pairs beyond max_pairs are subsampled uniformly (the cubic
    factorization cost is on the caller otherwise).
    """
    inputs, outputs = velocity_pairs(tracklets)
    if len(inputs) < 2:
        raise ValueError("need at least 2 training pairs")
    inputs, outputs = _subsample(inputs, outputs, max_pairs, seed)
    hyper0 = hyper0 or GpHyper()
    models = []
    for axis in range(2):
        fit = fit_hyper(inputs, outputs[:, axis], hyper0, seed=seed + axis) if optimize else None
        models.append(GpModel(inputs, outputs[:, axis], fit.hyper if fit else hyper0, fit))
    return models[0], models[1]


# -- serialization (GPM1) ----------------------------------------------------


def save_gp(path, models: tuple[GpModel, GpModel], dt: float, sensor: SensorConfig) -> None:
    mx, my = models
    lines = ["GPM1"]
    lines.append(f"n_pairs {len(mx)}")
    lines.append(f"dt {dt:.17g}")
    lines.append(f"sensor {sensor.origin[0]:.17g} {sensor.origin[1]:.17g} "
                 f"{sensor.sigma_r:.17g} {sensor.sigma_a:.17g}")
    for tag, m in (("x", mx), ("y", my)):
        lines.append(f"hyper_{tag} {m.hyper.sigma0_sq:.17g} {m.hyper.length_sq:.17g} "
                     f"{m.hyper.noise_sq:.17g}")
    for row in mx.inputs:
        lines.append(f"u {row[0]:.17g} {row[1]:.17g}")
    for tag, m in (("x", mx), ("y", my)):
        for v, a in zip(m.outputs, m.solve_vector):
            lines.append(f"z_{tag} {v:.17g} {a:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_gp(path):
    """Returns (models, dt, sensor); the factorization is rebuilt on load."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "GPM1":
        raise ValueError(f"{path}: not a GPM1 document")
    fields = {}
    inputs, z_x, z_y = [], [], []
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "u":
            inputs.append([float(parts[1]), float(parts[2])])
        elif parts[0] == "z_x":
            z_x.append((float(parts[1]), float(parts[2])))
        elif parts[0] == "z_y":
            z_y.append((float(parts[1]), float(parts[2])))
        else:
            fields[parts[0]] = [float(v) for v in parts[1:]]
    inputs = np.asarray(inputs)
    sensor = SensorConfig(origin=fields["sensor"][:2], sigma_r=fields["sensor"][2],
                          sigma_a=fields["sensor"][3])
    models = []
    for tag, rows_ in (("x", z_x), ("y", z_y)):
        s0, l2, sv = fields[f"hyper_{tag}"]
        outputs = np.array([r[0] for r in rows_])
        model = GpModel(inputs, outputs, GpHyper(s0, l2, sv))
        stored_alpha = np.array([r[1] for r in rows_])
        if not np.allclose(model.solve_vector, stored_alpha, rtol=1e-8, atol=1e-10):
            raise ValueError(f"{path}: stored solve vector inconsistent with K and outputs")
        models.append(model)
    return (models[0], models[1]), fields["dt"][0], sensor


# -- SIR particle filter -----------------------------------------------------
#
# A ParticleSet holds one cloud, or a batch of B clouds on a leading axis, and
# every function below takes either.  rng is one Generator for one cloud and
# a sequence of B Generators, one per cloud, for a batch.


@dataclass
class ParticleSet:
    positions: np.ndarray  # (M, 2) m, or (B, M, 2) for B clouds
    velocities: np.ndarray  # (M, 2) m/s, or (B, M, 2)
    weights: np.ndarray  # (M,) or (B, M); each cloud's sum to 1

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim not in (1, 2) or self.weights.shape[-1] < 1:
            raise ValueError("need at least one particle")
        shape = (*self.weights.shape, 2)
        if self.positions.shape != shape or self.velocities.shape != shape:
            raise ValueError("positions/velocities must be (M, 2), or (B, M, 2) for a batch")
        if np.any(self.weights < 0.0) or np.any(np.abs(self.weights.sum(axis=-1) - 1.0) > 1e-12):
            raise ValueError("weights must be non-negative and sum to 1")

    def __len__(self) -> int:
        """Particles per cloud."""
        return self.weights.shape[-1]


def _draw(rng, draw, out, rows=True) -> np.ndarray:
    """out, with draw(generator, b) written into each row b of a batch where
    rows holds, each from row b's generator.  One cloud's rng is one
    generator, and its row b is (), the whole of out."""
    if isinstance(rng, np.random.Generator):
        if rows:
            out[()] = draw(rng, ())
        return out
    for b in np.flatnonzero(np.broadcast_to(rows, len(rng))):
        out[b] = draw(rng[b], b)
    return out


def init_particles(init, n_particles: int, rng) -> ParticleSet:
    """A cloud drawn from the Gaussian init = (mean, cov), or one per row of a
    batch of them."""
    mean, cov = init
    shape = (*mean.shape[:-1], n_particles, 2)
    positions = _draw(rng, lambda g, b: g.multivariate_normal(
        mean[b][:2], cov[b][:2, :2], size=n_particles), np.empty(shape))
    velocities = _draw(rng, lambda g, b: g.multivariate_normal(
        mean[b][2:], cov[b][2:, 2:], size=n_particles), np.empty(shape))
    weights = np.full(shape[:-1], 1.0 / n_particles)
    return ParticleSet(positions=positions, velocities=velocities, weights=weights)


def systematic_resample(weights: np.ndarray, rng) -> np.ndarray:
    """Particle indices systematic resampling keeps, per row of weights."""
    m = weights.shape[-1]
    anchors = (np.arange(m) + _draw(rng, lambda g, _: g.uniform(),
                                    np.zeros(weights.shape[:-1]))[..., None]) / m
    # np.searchsorted(cumsum, anchors) on every row at once: the count of
    # cumulative weights a stable merge puts before each anchor (ties after it)
    is_cum = np.argsort(np.concatenate([anchors, np.cumsum(weights, axis=-1)], axis=-1),
                        axis=-1, kind="stable") >= m
    return np.cumsum(is_cum, axis=-1)[~is_cum].reshape(anchors.shape).clip(max=m - 1)


def pf_propagate(ps: ParticleSet, models, sigma_p: float, dt: float, rng) -> ParticleSet:
    """Draw per-particle velocities from the GP posterior, then move positions."""
    m, batch = len(ps), ps.weights.shape[:-1]
    # predict_axes cloud by cloud: one call on all B*M queries gives the same
    # bits and finds no more copies (they are adjacent within a cloud), but its
    # mean's full-width (N, B*M) kernel gather outgrows the cache when N*M is large
    pred = np.empty((*batch, 2, 2, m))  # (..., axis, mean/variance, particle)
    for cloud, velocities in zip(pred.reshape(-1, 2, 2, m), ps.velocities.reshape(-1, m, 2)):
        cloud[...] = predict_axes(models, velocities)
    # one draw of the x velocity, y velocity and position noise, in that order
    noise = _draw(rng, lambda g, _: g.standard_normal(4 * m), np.empty((*batch, 4 * m)))
    new_vel = pred[..., 0, :] + np.sqrt(pred[..., 1, :]) * noise[..., :2 * m].reshape(*batch, 2, m)
    new_vel = new_vel.swapaxes(-1, -2)
    new_pos = ps.positions + dt * new_vel + sigma_p * noise[..., 2 * m:].reshape(*batch, m, 2)
    return ParticleSet(positions=new_pos, velocities=new_vel, weights=ps.weights.copy())


def _reweight(ps: ParticleSet, z: Measurement, sensor: SensorConfig):
    """(pf_reweight's particles, collapsed): collapsed holds for each cloud
    whose every weight underflowed to zero, and such a cloud keeps its weights."""
    delta = ps.positions - sensor.origin
    ranges = np.hypot(delta[..., 0], delta[..., 1])
    bearings = np.arctan2(delta[..., 1], delta[..., 0])
    log_lik = -0.5 * (
        ((np.expand_dims(z.range, -1) - ranges) / sensor.sigma_r) ** 2
        + (wrap_angle(np.expand_dims(z.bearing, -1) - bearings) / sensor.sigma_a) ** 2
    )
    with np.errstate(divide="ignore"):
        log_w = np.log(ps.weights) + log_lik
    peak = np.max(log_w, axis=-1, keepdims=True)
    collapsed = (np.max(log_lik, axis=-1) < np.log(np.finfo(float).tiny)) | ~np.isfinite(peak[..., 0])
    kept = np.expand_dims(collapsed, -1)
    w = np.where(kept, ps.weights, np.exp(log_w - np.where(kept, 0.0, peak)))
    w /= w.sum(axis=-1, keepdims=True)
    return ParticleSet(positions=ps.positions.copy(), velocities=ps.velocities.copy(),
                       weights=w), collapsed


def pf_reweight(ps: ParticleSet, z: Measurement, sensor: SensorConfig) -> ParticleSet:
    """Multiply weights by the range-bearing likelihood of z, then normalize.
    Raises WeightCollapseError, naming the first such row of a batch, when every
    weight of a cloud underflows; pf_step reseeds such a cloud instead."""
    ps, collapsed = _reweight(ps, z, sensor)
    if np.any(collapsed):
        raise WeightCollapseError(f"{row_prefix(collapsed)}all particle weights underflowed to zero")
    return ps


def pf_estimate(ps: ParticleSet):
    """(mean, cov): the weighted mean of positions and velocities and their
    weighted sample covariance, with a leading batch axis for a batch of clouds."""
    state = np.concatenate([ps.positions, ps.velocities], axis=-1)
    mean = (ps.weights[..., None, :] @ state)[..., 0, :]
    state -= mean[..., None, :]  # centred in place
    cov = (ps.weights[..., None] * state).swapaxes(-1, -2) @ state
    return mean, 0.5 * (cov + cov.swapaxes(-1, -2))


def pf_resample(ps: ParticleSet, rng) -> ParticleSet:
    """Systematic resampling of every cloud, to uniform weights."""
    idx = systematic_resample(ps.weights, rng)[..., None]
    return ParticleSet(
        positions=np.take_along_axis(ps.positions, idx, axis=-2),
        velocities=np.take_along_axis(ps.velocities, idx, axis=-2),
        weights=np.full(ps.weights.shape, 1.0 / len(ps)),
    )


def pf_reseed(ps: ParticleSet, z: Measurement, sensor: SensorConfig, rng,
              rows=True) -> ParticleSet:
    """Recovery after weight collapse: in every cloud where rows holds, positions
    re-drawn around the measurement, with uniform weights."""
    cart = polar_to_cartesian(z.range, z.bearing, sensor)
    noise_cov = measurement_noise_cartesian(z, sensor)
    bad = ~np.isfinite(cart).all(axis=-1) & rows
    if np.any(bad):
        raise NumericsError(f"{row_prefix(bad)}cannot reseed around a non-finite measurement")
    m = len(ps)
    positions = _draw(rng, lambda g, b: g.multivariate_normal(cart[b], noise_cov[b], size=m),
                      ps.positions.copy(), rows)
    weights = np.where(np.expand_dims(rows, -1), 1.0 / m, ps.weights)
    return ParticleSet(positions=positions, velocities=ps.velocities.copy(), weights=weights)


def pf_step(ps: ParticleSet, z: Measurement, models, sensor: SensorConfig,
            sigma_p: float, rng, dt: float = 1.0):
    """One SIR cycle: propagate, reweight, estimate, resample, on one cloud or
    on a batch of clouds.

    Returns (particles, prior mean, posterior mean, posterior covariance), the
    rows ekf.filter_tracklet asks of a step.  The prior is taken after
    propagation, the posterior from the normalized weights before resampling.
    A cloud whose every weight underflows is reseeded around z instead of
    raising; every cloud is then resampled systematically.
    """
    ps = pf_propagate(ps, models, sigma_p, dt, rng)
    prior_mean = pf_estimate(ps)[0]
    ps, collapsed = _reweight(ps, z, sensor)
    if np.any(collapsed):
        ps = pf_reseed(ps, z, sensor, rng, collapsed)
    return pf_resample(ps, rng), prior_mean, *pf_estimate(ps)
