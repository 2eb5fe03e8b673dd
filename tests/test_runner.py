"""Evaluation's filters on a whole test set (imm.run_ekf, run_imm, run_mkf
and gp.run_pf): lockstep filtering gives every tracklet the records it gets
alone, and every filter reports the step and the tracklet where it fails."""

import os

import numpy as np
import pytest

from conftest import cv_ekf_reference
from tracklearn import gp
from tracklearn.cli import _pin_blas
from tracklearn.ekf import EVAL_START, filter_tracklet
from tracklearn.errors import NumericsError
from tracklearn.gp import PfSettings, gp_fit, init_particles, pf_step, run_pf
from tracklearn.imm import MODE_CV, ImmConfig, default_params, run_ekf, run_imm
from tracklearn.mkf import MkfConfig, init_weights, run_mkf
from tracklearn.simulate import GctConfig, make_dataset
from tracklearn.statespace import SensorConfig, polar_to_cartesian

SENSOR = SensorConfig(origin=(0.0, 0.0), sigma_r=1.5, sigma_a=0.00523)
METHODS = ("ekf", "imm", "gp", "mkf")
WEIGHTS = init_weights(seed=0, hidden=4, dense=4, input_scale=10.0)
MKF_CFG = MkfConfig(hidden=4, dense=4)
PF = PfSettings(n_particles=50)


def gp_models(train):
    return gp_fit(train.tracklets, max_pairs=50, optimize=False)


def run_method(method, train, test):
    if method == "ekf":
        return run_ekf(test.tracklets, test.sensor, q=1.0)[:2]
    if method == "imm":
        return run_imm(default_params(test.sensor), test.tracklets, test.sensor, ImmConfig())[:2]
    if method == "mkf":
        return run_mkf(test.tracklets, test.sensor, WEIGHTS, MKF_CFG)[:2]
    return run_pf(test.tracklets, test.sensor, gp_models(train), PF, seed=0)[:2]


def run_alone(method, train, test, k):
    """(pred_means, post_means) of method on test's tracklet k by itself, with
    no batch axis; the particle filter draws from tracklet k's stream."""
    trk = test.tracklets[k]
    if method == "ekf":
        cfg = ImmConfig(modes=(MODE_CV,), train_r=False)
        return run_imm(default_params(SENSOR, cfg, init_q=1.0), trk, SENSOR, cfg)[:2]
    if method == "imm":
        return run_imm(default_params(SENSOR), trk, SENSOR, ImmConfig())[:2]
    if method == "mkf":
        return run_mkf(trk, SENSOR, WEIGHTS, MKF_CFG)[:2]
    rng = np.random.default_rng(np.random.SeedSequence(0).spawn(len(test.tracklets))[k])
    models = gp_models(train)

    def step(particles, z):
        return pf_step(particles, z, models, SENSOR, PF.sigma_p, rng, dt=trk.dt)

    def start(init, dt):
        return init_particles(init, PF.n_particles, rng)

    return filter_tracklet(trk, SENSOR, start, step)[:2]


def assert_records_equal_alone(method, train, test):
    pred, post = run_method(method, train, test)
    assert pred.shape == post.shape == (len(test), len(test.tracklets[0]) - EVAL_START, 4)
    for k in range(len(test)):
        pred_alone, post_alone = run_alone(method, train, test, k)
        assert np.array_equal(pred[k], pred_alone), (method, k)
        assert np.array_equal(post[k], post_alone), (method, k)


@pytest.mark.parametrize("method", METHODS)
def test_lockstep_records_equal_filtering_each_tracklet_alone(method):
    train = make_dataset(2, GctConfig(n_steps=12), SENSOR, seed=1)
    test = make_dataset(5, GctConfig(n_steps=20), SENSOR, seed=2)
    assert_records_equal_alone(method, train, test)


def test_ekf_method_equals_the_reference_cv_ekf():
    test = make_dataset(4, GctConfig(n_steps=30), SENSOR, seed=3)
    pred, post = run_ekf(test.tracklets, test.sensor, q=0.6)[:2]
    for k, trk in enumerate(test.tracklets):
        for rows, ref in zip((pred[k], post[k]), cv_ekf_reference(trk, SENSOR, 0.6)):
            assert np.max(np.abs(rows - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12


def test_lockstep_needs_one_length(monkeypatch):
    short = make_dataset(1, GctConfig(n_steps=12), SENSOR, seed=2).tracklets
    long = make_dataset(1, GctConfig(n_steps=15), SENSOR, seed=3).tracklets
    with pytest.raises(ValueError, match="one length and one dt"):
        run_imm(default_params(SENSOR), short + long, SENSOR)
    # split across processes, each chunk would have one length
    monkeypatch.setattr(gp, "PF_SPLIT_WORK", 0)
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="one length and one dt"):
        run_pf(short + long, SENSOR, gp_models(make_dataset(2, GctConfig(n_steps=12), SENSOR, 1)),
               PF, seed=0)


@pytest.mark.parametrize("method, row", [("ekf", 5), ("imm", 5), ("gp", 5), ("mkf", 5)])
def test_filters_name_the_failing_row(method, row):
    cfg = GctConfig(n_steps=12)
    train = make_dataset(2, cfg, SENSOR, seed=1)
    test = make_dataset(3, cfg, SENSOR, seed=2)
    assert run_method(method, train, test)[1].shape == (3, 12 - EVAL_START, 4)
    test.tracklets[1].meas[5, 0] = np.nan
    # step names the tracklet row, and row 1 the tracklet's index in the dataset
    with pytest.raises(NumericsError, match=rf"^step {row}: row 1: "):
        run_method(method, train, test)


def spy_on(monkeypatch, name):
    """Replace gp.<name> by a pass-through that records each call's arguments."""
    calls, real = [], getattr(gp, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gp, name, spy)
    return calls


def test_only_a_collapsed_cloud_is_reseeded(monkeypatch):
    """Tracklet 1's range jumps 5 km at row 8, so every weight of its cloud
    underflows there: that cloud alone is reseeded around its z, and every
    tracklet keeps the records it gets filtered alone."""
    train = make_dataset(2, GctConfig(n_steps=12), SENSOR, seed=1)
    test = make_dataset(3, GctConfig(n_steps=20), SENSOR, seed=2)
    test.tracklets[1].meas[8, 0] += 5000.0
    calls = spy_on(monkeypatch, "pf_reseed")  # pf_reseed(particles, weights, z, sensor, rng, rows)
    _, post = run_method("gp", train, test)
    assert all(list(args[-1]) == [False, True, False] for args in calls)
    assert np.array_equal(calls[0][2][:, 1], test.tracklets[1].meas[8])  # the z of row 8
    z = polar_to_cartesian(*test.tracklets[1].meas[8], SENSOR)
    assert np.linalg.norm(post[1, 8 - EVAL_START, :2] - z) < 50.0  # the track is 5 km off
    assert_records_equal_alone("gp", train, test)


def test_gp_clouds_split_across_processes_keep_their_records(monkeypatch):
    """Past the gate, run_pf filters contiguous chunks of its clouds in forked
    processes.  With 5 clouds on 2 and 3 processes (uneven chunks), and
    tracklet 3's cloud reseeded in a child's chunk, every output is that of
    filtering all the clouds in this process."""
    _pin_blas()
    train = make_dataset(2, GctConfig(n_steps=12), SENSOR, seed=1)
    test = make_dataset(5, GctConfig(n_steps=20), SENSOR, seed=2)
    test.tracklets[3].meas[8, 0] += 5000.0
    models = gp_models(train)
    monkeypatch.setattr(gp, "PF_SPLIT_WORK", 0)
    calls = spy_on(monkeypatch, "pf_reseed")  # sees this process's calls only
    outs, reseeds = {}, {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(gp, "_usable_cpus", lambda: workers)
        before = len(calls)
        outs[workers] = run_pf(test.tracklets, SENSOR, models, PF, seed=0)
        reseeds[workers] = calls[before:]
    assert reseeds[1]
    assert all(list(args[-1]) == [False, False, False, True, False] for args in reseeds[1])
    assert reseeds[2] == reseeds[3] == []  # tracklet 3 was filtered in a child
    for workers, (*arrays, ran_on) in outs.items():
        assert ran_on == workers
        for array, serial in zip(arrays, outs[1][:-1]):
            assert np.array_equal(array, serial), workers


def test_a_gp_cloud_failing_in_a_child_raises_the_serial_error(monkeypatch):
    """A NaN range in a child's chunk: the child fails, the parent filters
    every cloud again itself, and raises what a serial run raises, naming the
    tracklet's row in the whole batch; no child is left behind."""
    _pin_blas()
    train = make_dataset(2, GctConfig(n_steps=12), SENSOR, seed=1)
    test = make_dataset(5, GctConfig(n_steps=12), SENSOR, seed=2)
    test.tracklets[3].meas[6, 0] = np.nan
    monkeypatch.setattr(gp, "PF_SPLIT_WORK", 0)
    errors = []
    for workers in (1, 3):
        monkeypatch.setattr(gp, "_usable_cpus", lambda: workers)
        with pytest.raises(NumericsError) as info:
            run_pf(test.tracklets, SENSOR, gp_models(train), PF, seed=0)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith("step 6: row 3: ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
