"""End-to-end CLI runs: simulate -> train gp/imm/mkf -> evaluate -> report,
driven in-process through cli.main on tiny configs."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_config
import tracklearn
from tracklearn import gp
from tracklearn.cli import main
from tracklearn.errors import NumericsError

TRAINED = {"gp": "gp.gpm", "imm": "imm.txt", "mkf": "mkf.npz"}
# the GPS-like CSV path starts at the default sensor origin (0, 0)
OFF_PATH_ORIGIN = {("sensor", "origin_x"): "-2000", ("sensor", "origin_y"): "-1500"}


def experiment(path, root, overrides=None):
    """Config at path whose [models] point at the train outputs under root."""
    models = {("models", m): str(root / "model" / m / f) for m, f in TRAINED.items()}
    return write_config(path, {("gp", "optimize_hyper"): "false", **models, **(overrides or {})})


def run_pipeline(root, overrides=None, seed=3):
    """Every stage in order; returns {stage: exit code}."""
    cfg = str(experiment(root / "exp.ini", root, overrides))
    data = str(root / "data")
    codes = {"simulate": main(["simulate", "--config", cfg, "--out", data, "--seed", str(seed)])}
    for method in TRAINED:
        codes[method] = main(["train", "--config", cfg, "--out", str(root / "model" / method),
                              "--data", data, "--method", method, "--seed", "7"])
    codes["evaluate"] = main(["evaluate", "--config", cfg, "--out", str(root / "eval"),
                              "--data", data, "--seed", "7"])
    codes["report"] = main(["report", "--out", str(root / "eval")])
    return codes


def scored_methods(eval_dir):
    with (eval_dir / "scores.csv").open(newline="") as fh:
        return {row["method"] for row in csv.DictReader(fh)}


def assert_pipeline_outputs(root, codes):
    assert codes == dict.fromkeys(codes, 0)
    for split in ("train", "test"):
        assert (root / "data" / split / "truth_0000.csv").is_file()
        assert (root / "data" / split / "meas_0000.csv").is_file()
    for method, name in TRAINED.items():
        for f in (name, "loss_history.csv", "manifest.json"):
            assert (root / "model" / method / f).is_file()
    for f in ("records.npz", "scores.csv", "summary.txt", "noise_level.csv", "manifest.json"):
        assert (root / "eval" / f).is_file()
    assert not (root / "eval" / "failure_report.txt").exists()
    assert scored_methods(root / "eval") == {"ekf", "gp", "imm", "mkf"}


def load_records(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


@pytest.fixture(scope="module")
def gct_runs(tmp_path_factory):
    """The tiny gct pipeline twice with the same seeds."""
    roots = [tmp_path_factory.mktemp(f"gct{i}") for i in range(2)]
    return [(root, run_pipeline(root)) for root in roots]


def test_gct_pipeline_writes_every_output(gct_runs):
    for root, codes in gct_runs:
        assert_pipeline_outputs(root, codes)


def test_same_seeds_give_identical_records(gct_runs):
    (a, _), (b, _) = gct_runs
    rec_a = load_records(a / "eval" / "records.npz")
    rec_b = load_records(b / "eval" / "records.npz")
    assert rec_a.keys() == rec_b.keys()
    for key in rec_a:
        assert np.array_equal(rec_a[key], rec_b[key]), key


def test_records_do_not_depend_on_the_blas_thread_count(gct_runs, tmp_path):
    """The GP's fitted hyperparameters and the particle filter's records are
    the same bytes whatever OPENBLAS_NUM_THREADS says."""
    root, _ = gct_runs[0]
    src = str(Path(tracklearn.__file__).parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        cfg = str(experiment(tmp_path / f"exp-{threads}.ini", root, {
            ("gp", "optimize_hyper"): "true", ("models", "gp"): str(out / "gp" / "gp.gpm")}))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        common = ["--config", cfg, "--data", str(root / "data"), "--seed", "7"]
        for argv in (["train", "--out", str(out / "gp"), "--method", "gp", *common],
                     ["evaluate", "--out", str(out / "eval"), *common]):
            subprocess.run([sys.executable, "-m", "tracklearn", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        outs.append(out)
    for out in outs:
        for stage in ("gp", "eval"):
            pinned = json.loads((out / stage / "manifest.json").read_text())["blas_threads"]
            if pinned["numpy"] == "unpinned":
                pytest.skip("numpy's OpenBLAS exports no thread-count setter to pin")
            assert pinned["numpy"] == 1
    for name in ("gp/gp.gpm", "eval/records.npz", "eval/scores.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_csv_pipeline_writes_every_output(tmp_path, gps_csv):
    overrides = {("dataset", "kind"): "csv", ("dataset", "csv_path"): str(gps_csv),
                 ("dataset", "dt"): "0.1", **OFF_PATH_ORIGIN}
    assert_pipeline_outputs(tmp_path, run_pipeline(tmp_path, overrides))


@pytest.mark.parametrize("model_path, message", [
    ("", "error: [models] gp not set"),
    ("no/such/gp.gpm", "error: [models] gp missing"),
])
def test_missing_model_path_exits_2(gct_runs, tmp_path, capsys, model_path, message):
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("models", "gp"): model_path})
    code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "eval"),
                 "--data", str(root / "data"), "--seed", "7", "--method", "gp"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_corrupt_model_is_reported_and_the_others_still_score(gct_runs, tmp_path):
    root, _ = gct_runs[0]
    bad = tmp_path / "gp.gpm"
    bad.write_text("GPM1\nn_pairs oops\n")
    cfg = experiment(tmp_path / "exp.ini", root, {("models", "gp"): str(bad)})
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--data", str(root / "data"), "--seed", "7"])
    assert code == 1
    assert (out / "failure_report.txt").read_text().startswith("gp: ")
    assert scored_methods(out) == {"ekf", "imm", "mkf"}


@pytest.mark.parametrize("case, cause", [
    ("through_origin", "coincides with the sensor origin"),
    ("bad_header", "expected header"),
    ("too_few_rows", "< tracklet length"),
    ("non_finite", "line 7: non-finite value"),
])
def test_simulate_rejects_bad_csv_with_one_error_line(tmp_path, capsys, case, cause):
    header = "t,x,y,vx,vy"
    n_rows = 300
    if case == "bad_header":
        header = "time,x,y,vx,vy"
    elif case == "too_few_rows":
        n_rows = 50  # fewer than one 100-row tracklet
    # along the x axis from (0, 0), the default sensor origin
    rows = [f"{k},{k},0,1,0" for k in range(n_rows)]
    if case == "non_finite":
        rows[5] = "5,nan,0,1,0"
    csv_path = tmp_path / "track.csv"
    csv_path.write_text("\n".join([header] + rows) + "\n")
    cfg = write_config(tmp_path / "exp.ini", {("dataset", "kind"): "csv",
                                              ("dataset", "csv_path"): str(csv_path)})
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data"),
                 "--seed", "1"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(csv_path) in err[0]
    assert cause in err[0]


def test_simulate_rejects_csv_whose_time_step_is_not_dt(tmp_path, capsys, gps_csv):
    # the fixture samples at 10 Hz; the config keeps the default dt = 1.0
    cfg = write_config(tmp_path / "exp.ini", {("dataset", "kind"): "csv",
                                              ("dataset", "csv_path"): str(gps_csv),
                                              **OFF_PATH_ORIGIN})
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "data"),
                 "--seed", "1"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: ") and "data row 2: time step 0.1 s differs from dt" in err[0]


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_train_mkf_rejects_non_positive_input_scale(gct_runs, tmp_path, capsys, scale):
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("mkf", "input_scale"): scale})
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "mkf"),
                 "--data", str(root / "data"), "--method", "mkf", "--seed", "7"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: [mkf] input_scale")


def test_evaluate_rejects_unknown_resample_scheme(gct_runs, tmp_path, capsys):
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("gp", "resample"): "sytematic"})
    code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "eval"),
                 "--data", str(root / "data"), "--seed", "7", "--method", "gp"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: [gp] resample")


@pytest.mark.parametrize("key, value", [
    ("n_particles", "0"), ("n_particles", "-3"),
    ("sigma_p", "-1"), ("sigma_p", "inf"), ("sigma_p", "nan"),
    ("ess_fraction", "0"), ("ess_fraction", "1.5"), ("ess_fraction", "nan"),
])
def test_evaluate_rejects_bad_particle_filter_settings(gct_runs, tmp_path, capsys, key, value):
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("gp", key): value})
    code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "eval"),
                 "--data", str(root / "data"), "--seed", "7", "--method", "gp"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(f"error: [gp] {key} must be")


def test_evaluate_rejects_models_trained_at_another_dt(gct_runs, tmp_path, capsys):
    root, _ = gct_runs[0]
    cfg = str(experiment(tmp_path / "exp.ini", root, {("dataset", "dt"): "0.5"}))
    data = str(tmp_path / "data")
    assert main(["simulate", "--config", cfg, "--out", data, "--seed", "3"]) == 0
    capsys.readouterr()
    for method in TRAINED:
        code = main(["evaluate", "--config", cfg, "--out", str(tmp_path / "eval"),
                     "--data", data, "--seed", "7", "--method", method])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error: dt 1 s of model") and "dt 0.5 s" in err[0]


def test_train_records_completion_in_the_manifest(gct_runs):
    root, _ = gct_runs[0]
    for method in TRAINED:
        manifest = json.loads((root / "model" / method / "manifest.json").read_text())
        assert manifest["stopped_early"] is None


def _train_gp(root, tmp_path):
    """train --method gp with fitted hyperparameters; returns (exit code, out, manifest,
    loss_history.csv rows split at the commas)."""
    cfg = experiment(tmp_path / "exp.ini", root, {("gp", "optimize_hyper"): "true"})
    out = tmp_path / "gp"
    code = main(["train", "--config", str(cfg), "--out", str(out),
                 "--data", str(root / "data"), "--method", "gp", "--seed", "7"])
    manifest = json.loads((out / "manifest.json").read_text())
    rows = [line.split(",") for line in (out / "loss_history.csv").read_text().splitlines()]
    return code, out, manifest, rows


def test_train_gp_records_each_axis_ascent(gct_runs, tmp_path):
    root, _ = gct_runs[0]
    unfitted = root / "model" / "gp"
    assert json.loads((unfitted / "manifest.json").read_text())["hyper_fallback"] is None
    assert (unfitted / "loss_history.csv").read_text() == "axis,iter,loss\n"

    code, out, manifest, rows = _train_gp(root, tmp_path)
    assert code == 0
    assert manifest["stopped_early"] == {"x": None, "y": None}
    assert manifest["hyper_fallback"] == {"x": False, "y": False}
    assert rows[0] == ["axis", "iter", "loss"]
    assert [(axis, int(step)) for axis, step, _ in rows[1:]] == [
        (axis, step) for axis in "xy" for step in range(200)]
    assert all(np.isfinite(float(loss)) for *_, loss in rows[1:])


def test_train_gp_says_which_axis_stopped_and_fell_back(gct_runs, tmp_path, capsys, monkeypatch):
    root, _ = gct_runs[0]
    calls = []
    negative_lml = gp.negative_lml

    def failing_fourth_call(*args):  # the x axis's step 3
        calls.append(None)
        if len(calls) == 4:
            raise NumericsError("matrix is not positive definite")
        return negative_lml(*args)

    monkeypatch.setattr(gp, "negative_lml", failing_fourth_call)
    code, out, manifest, rows = _train_gp(root, tmp_path)
    assert code == 0
    reason = "matrix is not positive definite"
    assert manifest["stopped_early"] == {"x": {"step": 3, "reason": reason}, "y": None}
    assert manifest["hyper_fallback"] == {"x": True, "y": False}
    assert [(axis, int(step)) for axis, step, _ in rows[1:]] == (
        [("x", step) for step in range(3)] + [("y", step) for step in range(200)])
    (mx, my), _, _ = gp.load_gp(out / "gp.gpm")
    assert mx.hyper == gp.GpHyper(1.0, 1.0, 0.01) != my.hyper  # the configured hyperparameters
    assert f"train gp: axis x stopped early at training step 3: {reason}" in (
        capsys.readouterr().out.splitlines())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
@pytest.mark.parametrize("method", ["imm", "mkf"])
def test_train_says_when_it_stopped_early(gct_runs, tmp_path, capsys, method):
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {(method, "lr"): "1e6"})
    out = tmp_path / method
    code = main(["train", "--config", str(cfg), "--out", str(out),
                 "--data", str(root / "data"), "--method", method, "--seed", "7"])
    assert code == 0
    stopped = json.loads((out / "manifest.json").read_text())["stopped_early"]
    assert set(stopped) == {"step", "reason"}
    assert 0 < stopped["step"] < 5 and stopped["reason"]
    rows = (out / "loss_history.csv").read_text().splitlines()[1:]
    assert len(rows) == stopped["step"]
    line = f"train {method}: stopped early at training step {stopped['step']}: {stopped['reason']}"
    assert line in capsys.readouterr().out.splitlines()


def test_train_refuses_another_methods_output_directory(gct_runs, tmp_path, capsys):
    root, _ = gct_runs[0]
    cfg = str(experiment(tmp_path / "exp.ini", root))
    out = tmp_path / "model"
    train = ["train", "--config", cfg, "--out", str(out), "--data", str(root / "data"),
             "--seed", "7", "--method"]
    assert main(train + ["gp"]) == 0
    manifest = (out / "manifest.json").read_text()
    capsys.readouterr()
    assert main(train + ["imm"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: --out {out} holds the outputs of 'train --method gp'")
    assert (out / "manifest.json").read_text() == manifest
    assert not (out / "imm.txt").exists()
    assert main(train + ["gp"]) == 0  # the same method may retrain into it


@pytest.mark.parametrize("section, key, value, command, cause", [
    ("imm", "modes", "cv,xx", "imm", "unknown mode"),
    ("imm", "likelihood", "foo", "imm", "unknown likelihood style 'foo'"),
    ("imm", "init_q", "-1", "imm", "init_q must be positive, got -1.0"),
    ("imm", "init_q", "0", "imm", "init_q must be positive, got 0.0"),
    ("mkf", "loss", "foo", "mkf", "unknown loss mode 'foo'"),
    ("gp", "sigma0_sq", "-1", "gp", "GP hyperparameters must be positive"),
    ("gp", "n_train_tracklets", "-1", "gp", "n_train_tracklets must be at least 0, got -1"),
    ("sensor", "sigma_r", "0", "simulate", "sensor noise stds must be positive"),
    ("dataset", "n_steps", "0", "simulate", "n_steps must be positive"),
])
def test_config_value_a_model_rejects_exits_2(gct_runs, tmp_path, capsys, section, key, value,
                                              command, cause):
    root, _ = gct_runs[0]
    cfg = str(experiment(tmp_path / "exp.ini", root, {(section, key): value}))
    if command == "simulate":
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "data"), "--seed", "1"]
    else:
        argv = ["train", "--config", cfg, "--out", str(tmp_path / command),
                "--data", str(root / "data"), "--method", command, "--seed", "7"]
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(f"error: [{section}] ") and cause in err[0]


@pytest.mark.parametrize("overrides, cause", [
    ({("dataset", "n_train"): "0"}, "n_train must be at least 1, got 0"),
    ({("dataset", "n_test"): "0"}, "n_test must be at least 1, got 0"),
    ({("dataset", "n_steps"): "2"}, "n_steps must be at least 3, got 2"),
    ({("dataset", "kind"): "csv", ("dataset", "tracklet_len"): "2"},
     "tracklet_len must be at least 3, got 2"),
])
def test_simulate_refuses_a_dataset_no_filter_can_run(tmp_path, capsys, gps_csv, overrides, cause):
    cfg = write_config(tmp_path / "exp.ini", {("dataset", "csv_path"): str(gps_csv), **overrides})
    out = tmp_path / "data"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "1"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == [f"error: [dataset] {cause}"]
    assert not (out / "manifest.json").exists()


def test_report_needs_the_records_of_an_evaluate_run(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {tmp_path} has no records.npz; run evaluate first"]
