"""Shared evaluation loop: run each configured filter over a test set and
collect aligned RunRecords.

Every filter consumes the first two measurements for track initialization;
errors are scored from step 2 onward so all methods see identical indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ekf import CwnaModel, init_track, run_ekf
from .evaluate import RunRecord
from .gp import init_particles, pf_step
from .imm import ImmConfig, ImmParams, run_imm
from .mkf import LstmWeights, MkfConfig, run_mkf
from .simulate import Dataset
from .statespace import SensorConfig, Tracklet, polar_rows_to_cartesian

EVAL_START = 2  # first scored step; 0 and 1 feed track initialization


def _record(pred: np.ndarray, post: np.ndarray, trk: Tracklet, sensor: SensorConfig) -> RunRecord:
    cart = polar_rows_to_cartesian(trk.meas, sensor)
    return RunRecord(
        pred=pred[EVAL_START:],
        post=post[EVAL_START:],
        truth=trk.truth[EVAL_START:],
        meas_cart=cart[EVAL_START:],
    )


def run_ekf_method(dataset: Dataset, q: float) -> list[RunRecord]:
    records = []
    for trk in dataset.tracklets:
        model = CwnaModel(dt=trk.dt, q=q)
        pred, post, _ = run_ekf(trk, dataset.sensor, model)
        records.append(_record(pred, post, trk, dataset.sensor))
    return records


def run_imm_method(dataset: Dataset, params: ImmParams, cfg: ImmConfig) -> list[RunRecord]:
    records = []
    for trk in dataset.tracklets:
        pred, post, _, _ = run_imm(params, trk, dataset.sensor, cfg)
        records.append(_record(pred, post, trk, dataset.sensor))
    return records


def run_mkf_method(dataset: Dataset, weights: LstmWeights, cfg: MkfConfig) -> list[RunRecord]:
    records = []
    for trk in dataset.tracklets:
        pred, post, _ = run_mkf(trk, dataset.sensor, weights, cfg)
        records.append(_record(pred, post, trk, dataset.sensor))
    return records


@dataclass
class PfSettings:
    n_particles: int = 1000
    sigma_p: float = 0.5
    resample: str = "systematic"  # or "ess"
    ess_fraction: float = 0.5


def run_gp_method(dataset: Dataset, models, settings: PfSettings, seed: int) -> list[RunRecord]:
    """SIR particle filter (gp.pf_step) over the test set, one RNG stream per
    tracklet; weight collapse re-seeds the cloud from the current measurement
    and continues."""
    records = []
    sensor = dataset.sensor
    rngs = np.random.SeedSequence(seed).spawn(len(dataset.tracklets))
    for trk, stream in zip(dataset.tracklets, rngs):
        rng = np.random.default_rng(stream)
        n = len(trk)
        init = init_track(trk.measurement(0), trk.measurement(1), sensor, trk.dt)
        ps = init_particles(init, settings.n_particles, rng)
        pred = np.full((n, 4), np.nan)
        post = np.full((n, 4), np.nan)
        pred[:EVAL_START] = init.mean
        post[:EVAL_START] = init.mean
        for t in range(EVAL_START, n):
            ps, prior, est = pf_step(ps, trk.measurement(t), models, sensor, settings.sigma_p,
                                     rng, dt=trk.dt, resample=settings.resample,
                                     ess_fraction=settings.ess_fraction)
            pred[t] = prior.mean
            post[t] = est.mean
        records.append(_record(pred, post, trk, sensor))
    return records
