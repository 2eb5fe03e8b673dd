"""Gaussian-process velocity model and the particle filter built on it.

Two GPs (one per Cartesian axis) map the previous velocity pair to the next
per-axis velocity.  They share one squared-exponential kernel, whose three
hyperparameters are refined by one ascent of the two axes' summed
log marginal likelihood on the autodiff tape.  This departs from PILCO and
GP-BayesFilters, which give each output dimension its own hyperparameters:
here the axes are exchangeable (both scenarios draw headings uniformly),
fitted apart they came out nearly equal, and one kernel costs one ascent
and one kernel evaluation per prediction in place of two.  Online, a
sequential importance resampling filter draws velocity particles from the
GP posterior and weighs positions against the range-bearing likelihood.
A particle cloud is one (M, 4) array of [x1, x2, v1, v2] rows, the
filters' state order; its weights exist only within pf_step, which starts
them uniform and resamples back to uniform.
The filter steps one cloud, or a batch of B clouds (one per test tracklet)
as one (B, M, 4) array in lockstep; each cloud draws from its own random
stream, in the order it would alone, and decides for itself when to
reseed (pf_reweight flags the clouds whose every weight underflows).
Every cloud is resampled at every step, which leaves it with runs of equal
velocities side by side; the GP posterior is predicted once per run
(predict_axes) and spread back to its particles.

The clouds of a large batch (run_pf) run in forked processes, one per
usable CPU (_in_processes), with the bits of running them one after the
other.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GradientOptimizer, inv_lower
from .ekf import check_lockstep, filter_tracklet
from .errors import NumericsError
from .simulate import tracklet_rngs
from .statespace import SensorConfig, measurement_noise_cartesian, polar_to_cartesian, wrap_angle


@dataclass(frozen=True)
class GpHyper:
    sigma0_sq: float = 1.0  # signal variance
    length_sq: float = 1.0  # squared kernel length scale
    noise_sq: float = 0.01  # observation noise variance

    def __post_init__(self):
        values = (self.sigma0_sq, self.length_sq, self.noise_sq)
        if not all(0.0 < v < np.inf for v in values):
            raise ValueError(f"GP hyperparameters must be positive and finite, got {values}")


# the least argument at which np.exp is a normal float (exp(x) >= 2**-1022);
# below it, exp is subnormal or 0.0
EXP_NORMAL_AT = -708.3964185322641
# fit_hyper's Adam steps and rate, and the most pairs its O(N^3) exact LML sees
HYPER_STEPS, HYPER_LR, HYPER_MAX_POINTS = 200, 1e-2, 400


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 without os.fork or the affinity probe."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _in_processes(jobs, serial):
    """(results, workers): the list [job() for job in jobs], computed by
    len(jobs) = workers processes, or (serial(), 1) with fewer than two jobs
    or usable CPUs.

    Job 0 runs in this process, and each other job in a child forked for it.
    A child sends its job's pickled result through a pipe and leaves by
    os._exit, so it runs no exit handler and flushes no inherited buffer.  It
    inherits this process's state, numpy's one-thread BLAS pin included
    (OpenBLAS stops its idle pool across a fork), so a job gives the bits it
    would give here.  When any job raises, serial() runs here after every
    child is reaped, so the caller raises exactly what a serial run raises.
    Every child is reaped before this returns or raises.
    """
    if len(jobs) < 2 or _usable_cpus() < 2:
        return serial(), 1
    pids, pipes, payloads, failed = [], [], [], False
    try:
        for job in jobs[1:]:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            with os.fdopen(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:  # the child leaves through os._exit, whatever happens
                    code = 1
                    try:
                        pickle.dump(job(), sink, pickle.HIGHEST_PROTOCOL)
                        sink.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        try:
            results = [jobs[0]()]
        except Exception:
            failed = True
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for k, pid in enumerate(pids):
            if k >= len(payloads):  # not read to its end: this process is raising
                os.kill(pid, signal.SIGKILL)
            failed |= os.waitpid(pid, 0)[1] != 0
    if failed:
        return serial(), 1
    return results + [pickle.loads(payload) for payload in payloads], len(jobs)


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

    exp is taken only where its result is a normal float, and 0.0 is written
    where it would be subnormal or zero.  np.exp is many times slower on such
    an argument, and with a short fitted length scale many are.  A GEMM that
    reads subnormal entries is several times slower too, and flushing them to
    0.0 left a fitted model's posterior means and variances bit-identical.
    """
    arg = -0.5 * (sq_distances(a, b) if sq is None else sq)
    arg /= hyper.length_sq
    zero = arg < EXP_NORMAL_AT  # false for NaN, whose exp stays NaN
    np.exp(arg, out=arg, where=~zero)
    np.copyto(arg, 0.0, where=zero)
    arg *= hyper.sigma0_sq
    return arg


@dataclass(frozen=True)
class HyperFit:
    """The hyperparameter ascent (fit_hyper): what it returned, and how it went."""
    hyper: GpHyper
    history: list  # ad.minimize's (step, loss) rows
    stopped: dict | None  # ad.minimize's early stop; None after every step ran
    fell_back: bool  # hyper is hyper0: the ascent stopped or never improved on its first loss


class GpModel:
    """One fitted per-axis GP: cached Cholesky factor L, its inverse and the solve vector.
    hyper_fit is the ascent that chose hyper, shared by both axes' models (None
    when hyper was given or loaded).  factor, when given, is the (L, L^-1) of
    another model on the same inputs and hyper, whose gram is this one's."""

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray, hyper: GpHyper,
                 hyper_fit: HyperFit | None = None, factor: tuple | None = None):
        self.inputs = np.asarray(inputs, dtype=float)
        self.outputs = np.asarray(outputs, dtype=float).reshape(-1)
        if self.inputs.ndim != 2 or self.inputs.shape[1] != 2:
            raise ValueError("GP inputs must be (N, 2) velocity pairs")
        if len(self.inputs) != len(self.outputs):
            raise ValueError("inputs and outputs must align")
        self.hyper = hyper
        self.hyper_fit = hyper_fit
        if factor is None:
            gram = kernel_matrix(self.inputs, self.inputs, hyper)
            gram[np.diag_indices_from(gram)] += hyper.noise_sq
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise NumericsError(
                    "K + noise_sq*I is not positive definite; raise noise_sq "
                    f"(jitter of {1e-8 * gram[0, 0]:.3g} would likely suffice): {exc}"
                ) from exc
            factor = chol, inv_lower(chol)
        self.chol, self.inv_chol = factor
        self.solve_vector = self.inv_chol.T @ (self.inv_chol @ self.outputs)

    def __len__(self) -> int:
        return len(self.outputs)

    def predict_batch(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Zero-mean GP posterior at each query row; variance clipped to [0, k**]."""
        return predict_axes((self,), queries)[0]


def predict_axes(models, queries: np.ndarray) -> list:
    """predict_batch of models fitted on the same inputs with the same
    hyperparameters (as gp_fit and load_gp make them): the kernel, L^-1 k_star
    and the variances are computed once, from models[0]; only each model's
    mean is its own.

    A query row equal to the row before it is a copy: the posterior is a pure
    function of the query, so it is computed once per run of copies (after
    pf_resample, copies of a particle sit side by side) and spread back to
    every row.  Copies that are not adjacent are computed twice.
    """
    new = np.ones(len(queries), dtype=bool)  # the first row of each run of copies
    new[1:] = ~(queries[1:] == queries[:-1]).all(axis=1)
    run = np.cumsum(new) - 1  # row -> its run's distinct row
    distinct = queries[new]
    first, hyper = models[0], models[0].hyper
    k_star = kernel_matrix(first.inputs, distinct, hyper)  # (N, D)
    half = first.inv_chol @ k_star  # L^-1 k_star, one GEMM
    variances = np.clip(hyper.sigma0_sq - np.einsum("nm,nm->m", half, half),
                        0.0, hyper.sigma0_sq)[run]
    return [((k_star.T @ model.solve_vector)[run], variances) for model in models]


def velocity_pairs(tracklets) -> tuple[np.ndarray, np.ndarray]:
    """Stack (previous velocity pair, next velocity) training rows from truth."""
    vels = [trk.truth[:, 2:4] for trk in tracklets]
    return np.concatenate([v[:-1] for v in vels]), np.concatenate([v[1:] for v in vels])


def negative_lml(s0, l2, sv, sq: np.ndarray, y: np.ndarray):
    """Negative log marginal likelihood of the N x k outputs y, k independent
    columns under one squared-exponential GP, given the N x N squared input
    distances sq: the sum of the k columns' values, as the Gaussian NLL of y
    under the gram (ad.gaussian_nll).

    s0, l2 and sv (signal variance, squared length scale, noise variance) are
    1x1 Vars, which record the objective on their tape, or 1x1 arrays.
    """
    arg = ad.const_like(l2, -0.5 * sq) * (1.0 / l2)
    gram = s0 * ad.exp(arg) + sv * np.eye(len(y))
    return ad.gaussian_nll(ad.const_like(s0, y), gram)


def _subsample(inputs: np.ndarray, outputs: np.ndarray, size: int, seed: int):
    """(inputs, outputs) cut to size rows drawn uniformly, in their order; whole
    when they have no more than size rows."""
    if len(inputs) <= size:
        return inputs, outputs
    keep = np.sort(np.random.default_rng(seed).choice(len(inputs), size=size, replace=False))
    return inputs[keep], outputs[keep]


def fit_hyper(inputs: np.ndarray, outputs: np.ndarray, hyper0: GpHyper,
              seed: int = 0) -> HyperFit:
    """Refine one set of hyperparameters by LML ascent (Adam on the
    log-parameters), on the summed LML of the output columns (see negative_lml;
    1-D outputs are one column).

    The fit's hyper is that of the first step whose loss is least; it falls
    back to hyper0 when the ascent fails to improve the objective or hits a
    numerical failure.
    """
    inputs, outputs = _subsample(inputs, outputs, HYPER_MAX_POINTS, seed)
    sq = sq_distances(inputs, inputs)
    y = outputs.reshape(len(outputs), -1)

    rhos = []  # the log-parameters of each step, in history order

    def record(params):
        rhos.append(params["rho"])
        tape = ad.make_tape()
        leaf = ad.var(tape, params["rho"].reshape(1, 3))
        s0, l2, sv = (ad.exp(ad.item(leaf, 0, k)) for k in range(3))
        return negative_lml(s0, l2, sv, sq, y), {"rho": leaf}

    rho0 = np.log([hyper0.sigma0_sq, hyper0.length_sq, hyper0.noise_sq])
    _, history, stopped = ad.minimize(record, {"rho": rho0}, GradientOptimizer(HYPER_LR).step,
                                      HYPER_STEPS)
    losses = [loss for _, loss in history]
    if stopped or not losses or min(losses) >= losses[0]:
        return HyperFit(hyper0, history, stopped, fell_back=True)
    s0, l2, sv = np.exp(rhos[losses.index(min(losses))])
    return HyperFit(GpHyper(sigma0_sq=float(s0), length_sq=float(l2), noise_sq=float(sv)),
                    history, stopped, fell_back=False)


def gp_fit(tracklets, hyper0: GpHyper | None = None, max_pairs: int = 2000,
           optimize: bool = True, seed: int = 0) -> tuple[GpModel, GpModel]:
    """Fit the per-axis velocity GPs from training tracklets, with one set of
    hyperparameters: hyper0, or with optimize the one ascent of both axes'
    summed LML (fit_hyper), which both models hold as hyper_fit.

    Training pairs beyond max_pairs are subsampled uniformly (the cubic
    factorization cost is on the caller otherwise); at least 2 must remain.
    """
    inputs, outputs = _subsample(*velocity_pairs(tracklets), max_pairs, seed)
    if len(inputs) < 2:
        raise ValueError(f"need at least 2 training pairs, got {len(inputs)}")
    hyper0 = hyper0 or GpHyper()
    fit = fit_hyper(inputs, outputs, hyper0, seed=seed) if optimize else None
    x_model = GpModel(inputs, outputs[:, 0], fit.hyper if fit else hyper0, fit)
    return x_model, GpModel(inputs, outputs[:, 1], x_model.hyper, fit,
                            (x_model.chol, x_model.inv_chol))


# -- serialization (GPM1) ----------------------------------------------------


def save_gp(path, models: tuple[GpModel, GpModel], dt: float, sensor: SensorConfig) -> None:
    tagged = tuple(zip("xy", models))
    lines = ["GPM1", f"n_pairs {len(models[0])}", f"dt {dt:.17g}",
             "sensor " + " ".join(f"{v:.17g}" for v in sensor.to_row())]
    lines += [f"hyper_{tag} {m.hyper.sigma0_sq:.17g} {m.hyper.length_sq:.17g} "
              f"{m.hyper.noise_sq:.17g}" for tag, m in tagged]
    lines += [f"u {u0:.17g} {u1:.17g}" for u0, u1 in models[0].inputs]
    lines += [f"z_{tag} {v:.17g} {a:.17g}" for tag, m in tagged
              for v, a in zip(m.outputs, m.solve_vector)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_gp(path):
    """Returns (models, dt, sensor); the factorization is rebuilt on load, once
    for both axes.  A file whose hyper_x and hyper_y differ is refused (see
    predict_axes)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "GPM1":
        raise ValueError(f"{path}: not a GPM1 document")
    fields = {"u": [], "z_x": [], "z_y": []}  # one row per line; other tags hold one line
    for tag, *values in (line.split() for line in lines[1:] if line.strip()):
        values = [float(v) for v in values]
        if tag in ("u", "z_x", "z_y"):
            fields[tag].append(values)
        else:
            fields[tag] = values
    n_pairs = fields.get("n_pairs", [0])[0]
    missing = [tag for tag in ("n_pairs", "dt", "sensor", "hyper_x", "hyper_y") if tag not in fields]
    missing += [tag for tag in ("u", "z_x", "z_y") if len(fields[tag]) < n_pairs]
    if missing:  # a truncated file
        raise ValueError(f"{path}: {missing[0]} line missing")
    if fields["hyper_x"] != fields["hyper_y"]:
        raise ValueError(f"{path}: hyper_x and hyper_y differ; both axes must share one kernel")
    hyper, models, factor = GpHyper(*fields["hyper_x"]), [], None
    for tag in "xy":
        outputs, stored_alpha = np.array(fields[f"z_{tag}"]).reshape(-1, 2).T
        model = GpModel(np.asarray(fields["u"]), outputs, hyper, factor=factor)
        factor = model.chol, model.inv_chol  # the y axis's gram is the x axis's
        if not np.allclose(model.solve_vector, stored_alpha, rtol=1e-8, atol=1e-10):
            raise ValueError(f"{path}: stored solve vector inconsistent with K and outputs")
        models.append(model)
    return (models[0], models[1]), fields["dt"][0], SensorConfig.from_row(fields["sensor"])


# -- SIR particle filter -----------------------------------------------------
#
# Every function below takes one (M, 4) cloud or a (B, M, 4) batch of them.
# rng is one Generator for one cloud and a sequence of B, one per cloud, for a batch.


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


def init_particles(init, n_particles: int, rng) -> np.ndarray:
    """A cloud drawn from the Gaussian init = (mean, cov), or one per row of a
    batch of them: every cloud's positions, then every cloud's velocities."""
    mean, cov = init
    particles = np.empty((*mean.shape[:-1], n_particles, 4))
    for part in (slice(0, 2), slice(2, 4)):
        _draw(rng, lambda g, b: g.multivariate_normal(mean[b][part], cov[b][part, part],
                                                      size=n_particles), particles[..., part])
    return particles


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


def pf_propagate(particles: np.ndarray, models, sigma_p: float, dt: float, rng) -> np.ndarray:
    """Draw per-particle velocities from the GP posterior, then move positions."""
    *batch, m, _ = particles.shape
    # predict_axes cloud by cloud: the mean's GEMV sums in an order that depends
    # on how many distinct columns it is given, so one call on all B*M queries
    # would make a cloud's bits depend on its batch-mates' copies
    pred = np.empty((*batch, 2, 2, m))  # (..., axis, mean/variance, particle)
    for cloud, velocities in zip(pred.reshape(-1, 2, 2, m), particles[..., 2:].reshape(-1, m, 2)):
        cloud[...] = predict_axes(models, velocities)
    # one draw of the x velocity, y velocity and position noise, in that order
    noise = _draw(rng, lambda g, _: g.standard_normal(4 * m), np.empty((*batch, 4 * m)))
    moved = np.empty_like(particles)
    moved[..., 2:] = (pred[..., 0, :] + np.sqrt(pred[..., 1, :])
                      * noise[..., :2 * m].reshape(*batch, 2, m)).swapaxes(-1, -2)
    moved[..., :2] = (particles[..., :2] + dt * moved[..., 2:]
                      + sigma_p * noise[..., 2 * m:].reshape(*batch, m, 2))
    return moved


def pf_reweight(particles: np.ndarray, z, sensor: SensorConfig):
    """(weights, collapsed): the uniform weights a cloud starts a step with,
    times the range-bearing likelihood of z, normalized.  collapsed holds for
    each cloud whose every weight underflows to zero, and such a cloud's
    weights stay uniform; pf_step reseeds it."""
    delta = particles[..., :2] - sensor.origin
    ranges = np.hypot(delta[..., 0], delta[..., 1])
    bearings = np.arctan2(delta[..., 1], delta[..., 0])
    z_range, z_bearing = (np.expand_dims(v, -1) for v in z)
    log_lik = -0.5 * (((z_range - ranges) / sensor.sigma_r) ** 2
                      + (wrap_angle(z_bearing - bearings) / sensor.sigma_a) ** 2)
    log_w = np.log(1.0 / particles.shape[-2]) + log_lik
    peak = np.max(log_w, axis=-1, keepdims=True)
    collapsed = ((np.max(log_lik, axis=-1) < np.log(np.finfo(float).tiny))
                 | ~np.isfinite(peak[..., 0]))
    kept = np.expand_dims(collapsed, -1)
    weights = np.where(kept, 1.0, np.exp(log_w - np.where(kept, 0.0, peak)))
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights, collapsed


def pf_estimate(particles: np.ndarray, weights: np.ndarray):
    """(mean, cov): the weighted mean of the particles and their weighted
    sample covariance, with a leading batch axis for a batch of clouds."""
    mean = (weights[..., None, :] @ particles)[..., 0, :]
    centred = particles - mean[..., None, :]
    cov = (weights[..., None] * centred).swapaxes(-1, -2) @ centred
    return mean, ad.symmetrize(cov)


def pf_resample(particles: np.ndarray, weights: np.ndarray, rng) -> np.ndarray:
    """Systematic resampling of every cloud; the copies' weights are uniform."""
    return np.take_along_axis(particles, systematic_resample(weights, rng)[..., None], axis=-2)


def pf_reseed(particles: np.ndarray, weights: np.ndarray, z, sensor: SensorConfig, rng,
              rows=True):
    """Recovery after weight collapse: (particles, weights) with, in every
    cloud where rows holds, positions re-drawn around the measurement z and
    uniform weights."""
    cart = polar_to_cartesian(*z, sensor)
    noise_cov = measurement_noise_cartesian(*z, sensor)
    bad = ~np.isfinite(cart).all(axis=-1) & rows
    if np.any(bad):
        raise NumericsError("cannot reseed around a non-finite measurement", bad)
    m = particles.shape[-2]
    particles = particles.copy()
    _draw(rng, lambda g, b: g.multivariate_normal(cart[b], noise_cov[b], size=m),
          particles[..., :2], rows)
    return particles, np.where(np.expand_dims(rows, -1), 1.0 / m, weights)


def pf_step(particles: np.ndarray, z, models, sensor: SensorConfig, sigma_p: float, rng,
            dt: float = 1.0):
    """One SIR cycle against the (range, bearing) row z: propagate, reweight,
    estimate, resample, on one cloud or on a batch of clouds.

    Returns (particles, prior mean, posterior mean, posterior covariance), the
    rows ekf.filter_tracklet asks of a step.  The prior is taken after
    propagation, the posterior from the normalized weights before resampling.
    A cloud whose every weight underflows is reseeded around z; every cloud
    is then resampled systematically, back to uniform weights.
    """
    particles = pf_propagate(particles, models, sigma_p, dt, rng)
    uniform = np.full(particles.shape[:-1], 1.0 / particles.shape[-2])
    prior_mean = pf_estimate(particles, uniform)[0]
    weights, collapsed = pf_reweight(particles, z, sensor)
    if np.any(collapsed):
        particles, weights = pf_reseed(particles, weights, z, sensor, rng, collapsed)
    return pf_resample(particles, weights, rng), prior_mean, *pf_estimate(particles, weights)


# run_pf splits its clouds across processes from this cloud-step work,
# n_particles * n_pairs, on.  A fork costs about 3 ms, and both processes
# then pay copy-on-write faults on the pages they write.  Measured with
# numpy's BLAS on one thread, on 2 CPUs, 16 GCT clouds of 28 steps, serial
# against 2 processes: 58 -> 87 ms at 100 x 100 (slower), 78 -> 52 ms at
# 150 x 100, 218 -> 128 ms at 250 x 160, and 352 -> 202 ms at 500 x 160.
PF_SPLIT_WORK = 40_000


@dataclass
class PfSettings:
    n_particles: int = 1000
    sigma_p: float = 0.5

    def __post_init__(self):
        if not isinstance(self.n_particles, (int, np.integer)) or self.n_particles < 1:
            raise ValueError(f"n_particles must be an integer >= 1, got {self.n_particles!r}")
        if not (np.isfinite(self.sigma_p) and self.sigma_p >= 0.0):
            raise ValueError(f"sigma_p must be finite and >= 0, got {self.sigma_p!r}")


def run_pf(tracklets, sensor: SensorConfig, models, settings: PfSettings, seed: int):
    """pf_step over a list of tracklets in lockstep (see ekf.filter_tracklet); the
    cloud of tracklet i draws from tracklet_rngs(seed, n)[i], as it would alone.

    Returns (pred_means, post_means, post_covs, clouds, workers).  When a
    cloud-step's work, n_particles * n_pairs, reaches PF_SPLIT_WORK, the
    tracklets are cut into contiguous chunks, one per usable CPU, each is
    filtered in its own process (_in_processes), and their outputs are joined
    in order.  Every cloud keeps its bits, and a failing step raises the
    serial run's error, with the tracklet's row in the whole batch.  workers
    is the number of processes the clouds ran on (1: all in this one).
    """
    dt = tracklets[0].dt
    check_lockstep(tracklets)
    n = len(tracklets)

    def run(lo, hi):
        rngs = tracklet_rngs(seed, n)[lo:hi]
        return filter_tracklet(
            tracklets[lo:hi], sensor, lambda init, _: init_particles(init, settings.n_particles, rngs),
            lambda clouds, z: pf_step(clouds, z, models, sensor, settings.sigma_p, rngs, dt))

    k = min(n, _usable_cpus()) if settings.n_particles * len(models[0]) >= PF_SPLIT_WORK else 1
    parts, workers = _in_processes([partial(run, n * c // k, n * (c + 1) // k) for c in range(k)],
                                   lambda: [run(0, n)])
    return *(np.concatenate(column) for column in zip(*parts)), workers
