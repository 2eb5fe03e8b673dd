"""Shared evaluation: run each configured filter over a test set and collect
aligned RunRecords.

Every filter runs through ekf.filter_tracklet, which consumes the first two
measurements for track initialization; records are scored from
ekf.EVAL_START onward, so all methods see identical indices.  The tracklets
of one length and dt (a simulated dataset has one of each) are filtered in
lockstep, as one batch; a failure names its tracklet by dataset index.  The
GP particle filter steps the batch's clouds together too, each cloud drawing
from its own tracklet's random stream, so its records match the tracklet's
filtered alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ekf import EVAL_START, CwnaModel, filter_tracklet, run_ekf
from .errors import NumericsError, renumber_row
from .evaluate import RunRecord
from .gp import init_particles, pf_step
from .imm import ImmConfig, ImmParams, run_imm
from .mkf import LstmWeights, MkfConfig, run_mkf
from .simulate import Dataset
from .statespace import polar_rows_to_cartesian


def _records(dataset: Dataset, run) -> list[RunRecord]:
    """RunRecords in dataset order; run(tracklets, rows) filters one length-and-dt group."""
    groups: dict[tuple, list[int]] = {}
    for i, trk in enumerate(dataset.tracklets):
        groups.setdefault((len(trk), trk.dt), []).append(i)
    records = [None] * len(dataset.tracklets)
    for rows in groups.values():
        try:
            pred, post = run([dataset.tracklets[i] for i in rows], rows)[:2]
        except NumericsError as exc:  # name the failing tracklet by its dataset index
            raise NumericsError(renumber_row(str(exc), rows)) from exc
        for b, i in enumerate(rows):
            trk = dataset.tracklets[i]
            cart = polar_rows_to_cartesian(trk.meas, dataset.sensor)
            records[i] = RunRecord(pred=pred[b, EVAL_START:], post=post[b, EVAL_START:],
                                   truth=trk.truth[EVAL_START:], meas_cart=cart[EVAL_START:])
    return records


def run_ekf_method(dataset: Dataset, q: float) -> list[RunRecord]:
    return _records(dataset, lambda trks, _: run_ekf(trks, dataset.sensor, CwnaModel(trks[0].dt, q)))


def run_imm_method(dataset: Dataset, params: ImmParams, cfg: ImmConfig) -> list[RunRecord]:
    return _records(dataset, lambda trks, _: run_imm(params, trks, dataset.sensor, cfg))


def run_mkf_method(dataset: Dataset, weights: LstmWeights, cfg: MkfConfig) -> list[RunRecord]:
    return _records(dataset, lambda trks, _: run_mkf(trks, dataset.sensor, weights, cfg))


@dataclass
class PfSettings:
    n_particles: int = 1000
    sigma_p: float = 0.5

    def __post_init__(self):
        if not isinstance(self.n_particles, (int, np.integer)) or self.n_particles < 1:
            raise ValueError(f"n_particles must be an integer >= 1, got {self.n_particles!r}")
        if not (np.isfinite(self.sigma_p) and self.sigma_p >= 0.0):
            raise ValueError(f"sigma_p must be finite and >= 0, got {self.sigma_p!r}")


def run_gp_method(dataset: Dataset, models, settings: PfSettings, seed: int) -> list[RunRecord]:
    """SIR particle filter (gp.pf_step) over the test set; weight collapse
    re-seeds a cloud from its current measurement and continues.  A lockstep
    step runs pf_step once on the batch of clouds; the cloud of dataset
    tracklet i draws from SeedSequence(seed).spawn(n)[i], as it would alone."""
    streams = np.random.SeedSequence(seed).spawn(len(dataset.tracklets))

    def run(tracklets, rows):
        rngs = [np.random.default_rng(streams[i]) for i in rows]

        def step(clouds, z):
            clouds, prior, post = pf_step(clouds, z, models, dataset.sensor, settings.sigma_p, rngs,
                                          dt=tracklets[0].dt)
            return clouds, prior.mean, post.mean, post.cov

        return filter_tracklet(tracklets, dataset.sensor,
                               lambda init, dt: init_particles(init, settings.n_particles, rngs), step)

    return _records(dataset, run)
