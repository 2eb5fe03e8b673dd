"""Shared evaluation: run each configured filter over a test set as one
lockstep batch.

Every filter runs through ekf.filter_tracklet, which consumes the first two
measurements for track initialization.  The EKF benchmark is the IMM with
one cv mode and the sensor's own noise: mixing and combination then pass
the one mode's estimate through unchanged.  Each run_*_method returns the
(pred, post) state means of the whole test set's filtered rows, ekf.EVAL_START
on, as (B, T - EVAL_START, 4) arrays, so all methods see identical indices;
batch row b is dataset tracklet b, and a failure names it so.  The GP
particle filter steps the batch's clouds together too, each cloud drawing
from its own tracklet's random stream, so its records match the tracklet's
filtered alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ekf import filter_tracklet
from .gp import init_particles, pf_step
from .imm import MODE_CV, ImmConfig, ImmParams, default_params, run_imm
from .mkf import LstmWeights, MkfConfig, run_mkf
from .simulate import Dataset, tracklet_rngs


def run_ekf_method(dataset: Dataset, q: float):
    """The CV-EKF with white-noise-acceleration intensity q, run as the IMM
    with the one mode cv."""
    cfg = ImmConfig(modes=(MODE_CV,), train_r=False)
    params = default_params(dataset.sensor, cfg, init_q=q)
    return run_imm(params, dataset.tracklets, dataset.sensor, cfg)[:2]


def run_imm_method(dataset: Dataset, params: ImmParams, cfg: ImmConfig):
    return run_imm(params, dataset.tracklets, dataset.sensor, cfg)[:2]


def run_mkf_method(dataset: Dataset, weights: LstmWeights, cfg: MkfConfig):
    return run_mkf(dataset.tracklets, dataset.sensor, weights, cfg)[:2]


@dataclass
class PfSettings:
    n_particles: int = 1000
    sigma_p: float = 0.5

    def __post_init__(self):
        if not isinstance(self.n_particles, (int, np.integer)) or self.n_particles < 1:
            raise ValueError(f"n_particles must be an integer >= 1, got {self.n_particles!r}")
        if not (np.isfinite(self.sigma_p) and self.sigma_p >= 0.0):
            raise ValueError(f"sigma_p must be finite and >= 0, got {self.sigma_p!r}")


def run_gp_method(dataset: Dataset, models, settings: PfSettings, seed: int):
    """SIR particle filter (gp.pf_step) over the test set; weight collapse
    re-seeds a cloud from its current measurement and continues.  A lockstep
    step runs pf_step once on the batch of clouds; the cloud of dataset
    tracklet i draws from tracklet_rngs(seed, n)[i], as it would alone."""
    rngs = tracklet_rngs(seed, len(dataset))
    return filter_tracklet(
        dataset.tracklets, dataset.sensor,
        lambda init, dt: init_particles(init, settings.n_particles, rngs),
        lambda clouds, z: pf_step(clouds, z, models, dataset.sensor, settings.sigma_p, rngs,
                                  dataset.dt))[:2]
