"""The shared accuracy gate: on one small pinned GCT scenario, a method's
pooled post-update position RMSE must be below the raw measurements'.

The scenario is the accuracy probes' test set: 12 GCT tracklets of 50 steps
at seed 2000, seen by the CLI's default sensor (sigma_r = 1.5 m,
sigma_a = 0.00523 rad), scored from EVAL_START on as scores.csv scores them.
Each learned method gains its case here once it beats the measurements.
"""

import numpy as np
import pytest

from tracklearn.config import _DEFAULTS
from tracklearn.ekf import EVAL_START
from tracklearn.evaluate import pooled_rmse, position_errors
from tracklearn.imm import ImmConfig, default_params, run_ekf, run_imm
from tracklearn.mkf import MkfConfig, init_weights, input_scale_from, run_mkf
from tracklearn.simulate import GctConfig, make_dataset
from tracklearn.statespace import SensorConfig, polar_to_cartesian


@pytest.fixture(scope="module")
def scenario():
    return make_dataset(12, GctConfig(n_steps=50), SensorConfig(), seed=2000)


def post_and_raw_rmse(dataset, post):
    """Pooled RMSE of the post means and of the Cartesian measurements."""
    records = {
        "m_post": post,
        "m_meas": np.stack([polar_to_cartesian(*trk.meas.T, dataset.sensor)[EVAL_START:]
                            for trk in dataset.tracklets]),
        "m_truth": np.stack([trk.truth[EVAL_START:] for trk in dataset.tracklets]),
    }
    return tuple(pooled_rmse(position_errors(records, "m", phase)) for phase in ("post", "meas"))


def test_ekf_beats_the_raw_measurements(scenario):
    post = run_ekf(scenario.tracklets, scenario.sensor, q=1.0)[1]
    post_rmse, raw_rmse = post_and_raw_rmse(scenario, post)
    assert post_rmse < raw_rmse


def test_untrained_mkf_beats_the_raw_measurements(scenario):
    """The LSTM filter at its initial weights: the measurement updates alone
    must keep it below the measurements, whatever the network predicts."""
    train = make_dataset(32, GctConfig(n_steps=50), SensorConfig(), seed=1000)
    weights = init_weights(seed=7, input_scale=input_scale_from(train.tracklets, train.sensor))
    post = run_mkf(scenario.tracklets, scenario.sensor, weights, MkfConfig())[1]
    post_rmse, raw_rmse = post_and_raw_rmse(scenario, post)
    assert post_rmse < raw_rmse


def test_untrained_imm_beats_the_raw_measurements_and_the_ekf(scenario):
    """The IMM at the CLI's [imm] defaults, untrained: a cv mode and one ct
    mode per turn direction, which the EKF's single model cannot follow."""
    imm = _DEFAULTS["imm"]
    cfg = ImmConfig(modes=tuple(imm["modes"].split(",")))
    params = default_params(scenario.sensor, cfg, init_q=float(imm["init_q"]),
                            init_omega=float(imm["init_omega"]))
    post = run_imm(params, scenario.tracklets, scenario.sensor, cfg)[1]
    post_rmse, raw_rmse = post_and_raw_rmse(scenario, post)
    ekf_post = run_ekf(scenario.tracklets, scenario.sensor, q=1.0)[1]
    ekf_rmse = post_and_raw_rmse(scenario, ekf_post)[0]
    assert post_rmse < min(raw_rmse, ekf_rmse)
