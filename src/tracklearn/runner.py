"""Shared evaluation: run each configured filter over a test set and collect
aligned RunRecords.

Every filter runs through ekf.filter_tracklet, which consumes the first two
measurements for track initialization; records are scored from
ekf.EVAL_START onward, so all methods see identical indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ekf import EVAL_START, CwnaModel, filter_tracklet, run_ekf
from .evaluate import RunRecord
from .gp import init_particles, pf_step
from .imm import ImmConfig, ImmParams, run_imm
from .mkf import LstmWeights, MkfConfig, run_mkf
from .simulate import Dataset
from .statespace import polar_rows_to_cartesian


def _records(dataset: Dataset, run) -> list[RunRecord]:
    """One RunRecord per tracklet from run(tracklet) -> (pred_means, post_means, ...)."""
    records = []
    for trk in dataset.tracklets:
        pred, post = run(trk)[:2]
        cart = polar_rows_to_cartesian(trk.meas, dataset.sensor)
        records.append(RunRecord(
            pred=pred[EVAL_START:],
            post=post[EVAL_START:],
            truth=trk.truth[EVAL_START:],
            meas_cart=cart[EVAL_START:],
        ))
    return records


def run_ekf_method(dataset: Dataset, q: float) -> list[RunRecord]:
    return _records(dataset, lambda trk: run_ekf(trk, dataset.sensor, CwnaModel(dt=trk.dt, q=q)))


def run_imm_method(dataset: Dataset, params: ImmParams, cfg: ImmConfig) -> list[RunRecord]:
    return _records(dataset, lambda trk: run_imm(params, trk, dataset.sensor, cfg))


def run_mkf_method(dataset: Dataset, weights: LstmWeights, cfg: MkfConfig) -> list[RunRecord]:
    return _records(dataset, lambda trk: run_mkf(trk, dataset.sensor, weights, cfg))


@dataclass
class PfSettings:
    n_particles: int = 1000
    sigma_p: float = 0.5
    resample: str = "systematic"  # or "ess"
    ess_fraction: float = 0.5

    def __post_init__(self):
        if self.resample not in ("systematic", "ess"):
            raise ValueError(f"resample must be systematic or ess, got {self.resample!r}")


def run_gp_method(dataset: Dataset, models, settings: PfSettings, seed: int) -> list[RunRecord]:
    """SIR particle filter (gp.pf_step) over the test set, one RNG stream per
    tracklet; weight collapse re-seeds the cloud from the current measurement
    and continues."""
    streams = iter(np.random.SeedSequence(seed).spawn(len(dataset.tracklets)))

    def run(trk):
        rng = np.random.default_rng(next(streams))

        def step(ps, z):
            ps, prior, est = pf_step(ps, z, models, dataset.sensor, settings.sigma_p, rng,
                                     dt=trk.dt, resample=settings.resample,
                                     ess_fraction=settings.ess_fraction)
            return ps, prior.mean, est.mean, est.cov

        return filter_tracklet(
            trk, dataset.sensor, lambda init: init_particles(init, settings.n_particles, rng),
            step)

    return _records(dataset, run)
