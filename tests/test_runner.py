"""The evaluation runner: every filter reports the tracklet row where it fails."""

import numpy as np
import pytest

from tracklearn.errors import NumericsError
from tracklearn.gp import gp_fit
from tracklearn.imm import ImmConfig, default_params
from tracklearn.mkf import MkfConfig, init_weights
from tracklearn.runner import (
    PfSettings,
    run_ekf_method,
    run_gp_method,
    run_imm_method,
    run_mkf_method,
)
from tracklearn.simulate import GctConfig, make_dataset
from tracklearn.statespace import SensorConfig

SENSOR = SensorConfig(origin=(0.0, 0.0), sigma_r=1.5, sigma_a=0.00523)


def run_method(method, train, test):
    if method == "ekf":
        return run_ekf_method(test, q=1.0)
    if method == "imm":
        return run_imm_method(test, default_params(test.sensor), ImmConfig())
    if method == "mkf":
        weights = init_weights(seed=0, hidden=4, dense=4, input_scale=10.0)
        return run_mkf_method(test, weights, MkfConfig(hidden=4, dense=4))
    models = gp_fit(train.tracklets, max_pairs=50, optimize=False)
    return run_gp_method(test, models, PfSettings(n_particles=50), seed=0)


@pytest.mark.parametrize("method, row", [("ekf", 5), ("imm", 5), ("gp", 5), ("mkf", 5)])
def test_filters_name_the_failing_row(method, row):
    cfg = GctConfig(n_steps=12)
    train = make_dataset(2, cfg, SENSOR, seed=1)
    test = make_dataset(1, cfg, SENSOR, seed=2, role="test")
    assert len(run_method(method, train, test)[0].post) == 12 - 2
    test.tracklets[0].meas[5, 0] = np.nan
    with pytest.raises(NumericsError, match=rf"^step {row}: "):
        run_method(method, train, test)
