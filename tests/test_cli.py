"""End-to-end CLI runs: simulate -> train gp/imm/mkf -> evaluate -> report,
driven in-process through cli.main on tiny configs."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_config
import tracklearn
from tracklearn import gp
from tracklearn.cli import main
from tracklearn.ekf import EVAL_START
from tracklearn.errors import NumericsError
from tracklearn.gp import PfSettings, load_gp, run_pf
from tracklearn.imm import ImmConfig, load_imm, run_ekf, run_imm
from tracklearn.mkf import MkfConfig, load_mkf, run_mkf
from tracklearn.simulate import load_dataset
from tracklearn.statespace import SensorConfig

TRAINED = {"gp": "gp.gpm", "imm": "imm.txt", "mkf": "mkf.npz"}
# the GPS-like CSV path starts at the default sensor origin (0, 0)
OFF_PATH_ORIGIN = {("sensor", "origin_x"): "-2000", ("sensor", "origin_y"): "-1500"}
# what cli._pin_malloc reports where libc's mallopt takes both thresholds
PINNED_MALLOC = {"mmap_threshold": 32 << 20, "trim_threshold": 64 << 20}


def experiment(path, root, overrides=None):
    """Config at path whose [models] point at the train outputs under root."""
    models = {("models", m): str(root / "model" / m / f) for m, f in TRAINED.items()}
    return write_config(path, {("gp", "optimize_hyper"): "false", **models, **(overrides or {})})


def run_pipeline(root, overrides=None, seed=3):
    """Every stage in order; returns {stage: exit code}.  report runs in
    root/report on a copy of evaluate's records.npz, so evaluate's own report
    files stay in root/eval."""
    cfg = str(experiment(root / "exp.ini", root, overrides))
    data = str(root / "data")
    codes = {"simulate": main(["simulate", "--config", cfg, "--out", data, "--seed", str(seed)])}
    for method in TRAINED:
        codes[method] = main(["train", "--config", cfg, "--out", str(root / "model" / method),
                              "--data", data, "--method", method, "--seed", "7"])
    codes["evaluate"] = main(["evaluate", "--config", cfg, "--out", str(root / "eval"),
                              "--data", data, "--seed", "7"])
    (root / "report").mkdir()
    shutil.copy(root / "eval" / "records.npz", root / "report")
    codes["report"] = main(["report", "--out", str(root / "report")])
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
    # every method's truth rows are the test split's, from EVAL_START on
    test = load_dataset(root / "data" / "test", SensorConfig(), dt=1.0)
    truth = np.stack([trk.truth[EVAL_START:] for trk in test.tracklets])
    records = load_records(root / "eval" / "records.npz")
    for method in ("ekf", *TRAINED):
        assert np.array_equal(records[f"{method}_truth"], truth), method


def load_records(path):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _subprocess_env():
    """os.environ with this checkout's tracklearn first on PYTHONPATH."""
    src = str(Path(tracklearn.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


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


def test_same_data_gives_the_same_input_hashes(gct_runs):
    """The manifests identify the dataset split by its CSV bytes, not by the
    data manifest's wall-clock time, so the two runs' input hashes agree."""
    (a, _), (b, _) = gct_runs

    def inputs(root, stage):
        manifest = json.loads((root / stage / "manifest.json").read_text())
        return {str(Path(path).relative_to(root)): digest
                for path, digest in manifest["inputs"].items()}

    for stage in ("model/gp", "model/imm", "model/mkf", "eval"):
        assert inputs(a, stage) == inputs(b, stage), stage
    assert set(inputs(a, "model/gp")) == {"data/train"}
    assert set(inputs(a, "eval")) == {"data/test", *(f"model/{m}/{f}" for m, f in TRAINED.items())}
    assert inputs(a, "eval")["data/test"] != inputs(a, "model/gp")["data/train"]


def test_evaluate_passes_its_settings_to_each_filter(gct_runs, tmp_path):
    """cmd_evaluate is where the INI meets the filters: with settings off their
    defaults and a --seed other than train's 7, each method's records are its
    filter's, called here on the same split and model files."""
    root, _ = gct_runs[0]
    settings = {("ekf", "q"): "0.3", ("gp", "n_particles"): "37", ("gp", "sigma_p"): "0.9",
                ("mkf", "q_reg"): "0.05"}
    cfg = str(experiment(tmp_path / "exp.ini", root, settings))
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--data", str(root / "data"),
                 "--seed", "11"]) == 0
    records = load_records(out / "records.npz")
    test = load_dataset(root / "data" / "test", SensorConfig(), dt=1.0)
    trk, sensor = test.tracklets, test.sensor
    models = {m: load(root / "model" / m / TRAINED[m])[0]
              for m, load in (("gp", load_gp), ("imm", load_imm), ("mkf", load_mkf))}
    direct = {
        "ekf": run_ekf(trk, sensor, 0.3),
        "gp": run_pf(trk, sensor, models["gp"], PfSettings(n_particles=37, sigma_p=0.9), 11),
        "imm": run_imm(models["imm"], trk, sensor, ImmConfig(modes=models["imm"].modes)),
        "mkf": run_mkf(trk, sensor, models["mkf"], MkfConfig(q_reg=0.05)),
    }
    defaults = load_records(root / "eval" / "records.npz")
    for method, (pred, post, *_) in direct.items():
        assert np.array_equal(records[f"{method}_pred"], pred), method
        assert np.array_equal(records[f"{method}_post"], post), method
        if method != "imm":  # the IMM has no evaluate setting: imm.txt holds its modes
            assert not np.array_equal(post, defaults[f"{method}_post"]), method


def test_report_rewrites_evaluates_files_from_its_records(gct_runs):
    root, _ = gct_runs[0]
    names = sorted(p.name for p in (root / "eval").iterdir()
                   if p.name not in ("manifest.json", "records.npz"))
    assert {"scores.csv", "summary.txt", "noise_level.csv"} < set(names)
    assert any(name.startswith("series_") for name in names)
    assert sorted(p.name for p in (root / "report").iterdir()) == sorted(names + ["records.npz"])
    for name in names:
        assert (root / "report" / name).read_bytes() == (root / "eval" / name).read_bytes(), name


@pytest.mark.parametrize("argv", [["-c", "import tracklearn.cli"], ["-m", "tracklearn", "--help"]],
                         ids=["import", "help"])
def test_the_cli_loads_no_scipy_module(argv):
    """numpy alone does the linear algebra: importing the CLI, or running it,
    loads no scipy module (-X importtime lists every module a process loads)."""
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], env=_subprocess_env(),
                          check=True, capture_output=True, text=True)
    loaded = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")]
    assert "tracklearn.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


# the CLI in a fresh process; "off" as the first argument patches
# cli._pin_malloc to a no-op
RUN_CLI = ("import sys; from tracklearn import cli\n"
           "if sys.argv[1] == 'off': cli._pin_malloc = lambda: 'unpinned'\n"
           "sys.exit(cli.main(sys.argv[2:]))")


def _fit_and_filter(root, out, pin="on", env=None):
    """train --method gp with fitted hyperparameters into out/gp, then
    evaluate into out/eval, each in a fresh process (RUN_CLI) under env."""
    cfg = str(experiment(out.with_suffix(".ini"), root, {
        ("gp", "optimize_hyper"): "true", ("models", "gp"): str(out / "gp" / "gp.gpm")}))
    common = ["--config", cfg, "--data", str(root / "data"), "--seed", "7"]
    for argv in (["train", "--out", str(out / "gp"), "--method", "gp", *common],
                 ["evaluate", "--out", str(out / "eval"), *common]):
        subprocess.run([sys.executable, "-c", RUN_CLI, pin, *argv],
                       env={**_subprocess_env(), **(env or {})}, check=True,
                       stdout=subprocess.DEVNULL)
    return out


def test_records_do_not_depend_on_the_blas_thread_count(gct_runs, tmp_path):
    """The GP's fitted hyperparameters and the particle filter's records are
    the same bytes whatever OPENBLAS_NUM_THREADS says."""
    root, _ = gct_runs[0]
    outs = [_fit_and_filter(root, tmp_path / f"threads-{threads}",
                            env={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
    for out in outs:
        for stage in ("gp", "eval"):
            manifest = json.loads((out / stage / "manifest.json").read_text())
            assert manifest["malloc"] in ("unpinned", PINNED_MALLOC)
            pinned = manifest["blas_threads"]
            if pinned["numpy"] == "unpinned":
                pytest.skip("numpy's OpenBLAS exports no thread-count setter to pin")
            assert pinned["numpy"] == 1
    for name in ("gp/gp.gpm", "eval/records.npz", "eval/scores.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# a 20-step ascent on 160 synthetic pairs, after cli._pin_malloc; prints what
# the pin reported and the minor page faults of each of two fits
FIT_FAULTS = """
import json, resource
import numpy as np
from tracklearn import cli, gp
cli._pin_blas()
pinned = cli._pin_malloc()
gp.HYPER_STEPS = 20
rng = np.random.default_rng(0)
inputs, outputs = rng.normal(size=(160, 2)), rng.normal(size=160)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    gp.fit_hyper(inputs, outputs, gp.GpHyper(1.0, 1.0, 0.01))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"pinned": pinned, "faults": faults}))
"""


def test_the_pinned_allocator_keeps_an_ascents_arrays_in_the_heap():
    """With glibc's defaults every freed N x N temporary is unmapped or
    trimmed and faulted in again, about 212 minor faults per ascent step at
    N = 160.  Pinned, a fit after the first, which grows the heap to its
    working size, makes fewer than 20 per step."""
    done = subprocess.run([sys.executable, "-c", FIT_FAULTS], env=_subprocess_env(), check=True,
                          capture_output=True, text=True)
    result = json.loads(done.stdout)
    if result["pinned"] == "unpinned":
        pytest.skip("libc has no mallopt that takes both thresholds")
    assert result["pinned"] == PINNED_MALLOC
    assert result["faults"][1] < 20 * 20, result["faults"]


def test_records_do_not_depend_on_the_allocator_pin(gct_runs, tmp_path):
    """A fitted GP and the particle filter's records are the same bytes with
    cli._pin_malloc and with it patched to a no-op."""
    root, _ = gct_runs[0]
    outs = [_fit_and_filter(root, tmp_path / f"pin-{pin}", pin) for pin in ("on", "off")]
    on, off = (json.loads((out / "eval" / "manifest.json").read_text())["malloc"] for out in outs)
    if on == "unpinned":
        pytest.skip("libc has no mallopt that takes both thresholds")
    assert (on, off) == (PINNED_MALLOC, "unpinned")
    for name in ("gp/gp.gpm", "eval/records.npz"):
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
    # the model restored, a rerun into the same --out leaves no stale report
    shutil.copy(root / "model" / "gp" / "gp.gpm", bad)
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--data", str(root / "data"), "--seed", "7"]) == 0
    assert not (out / "failure_report.txt").exists()
    assert "failure_report.txt" not in json.loads((out / "manifest.json").read_text())["outputs"]
    assert scored_methods(out) == {"ekf", "gp", "imm", "mkf"}


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


def test_evaluate_rejects_the_removed_resample_key(gct_runs, tmp_path, capsys):
    """Every cloud is resampled systematically at every step, so resample is
    no [gp] key, and an INI that names it fails on loading."""
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("gp", "resample"): "systematic"})
    code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "eval"),
                 "--data", str(root / "data"), "--seed", "7", "--method", "gp"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: unknown key 'resample' in section [gp]"]


def test_train_rejects_the_removed_loss_key(gct_runs, tmp_path, capsys):
    """The LSTM-KF trains on the Gaussian NLL alone, so loss is no [mkf] key."""
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("mkf", "loss"): "nll"})
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "mkf"),
                 "--data", str(root / "data"), "--method", "mkf", "--seed", "7"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: unknown key 'loss' in section [mkf]"]


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_evaluate_rejects_an_ekf_q_that_is_not_positive(gct_runs, tmp_path, capsys, value):
    root, _ = gct_runs[0]
    cfg = experiment(tmp_path / "exp.ini", root, {("ekf", "q"): value})
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--data", str(root / "data"), "--seed", "7", "--method", "ekf"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: [ekf] q must be positive and finite, got {float(value)}"]
    assert not (out / "failure_report.txt").exists()


@pytest.mark.parametrize("key, value", [
    ("n_particles", "0"), ("n_particles", "-3"),
    ("sigma_p", "-1"), ("sigma_p", "inf"), ("sigma_p", "nan"),
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
    """The GP's one ascent, of both axes' summed LML, is recorded like imm's
    and mkf's training: "iter,loss" rows and single manifest values; both
    axes' models hold its hyperparameters."""
    root, _ = gct_runs[0]
    unfitted = root / "model" / "gp"
    assert json.loads((unfitted / "manifest.json").read_text())["hyper_fallback"] is None
    assert (unfitted / "loss_history.csv").read_text() == "iter,loss\n"

    code, out, manifest, rows = _train_gp(root, tmp_path)
    assert code == 0
    assert manifest["stopped_early"] is None
    assert manifest["hyper_fallback"] is False
    assert "gp_workers" not in manifest
    assert rows[0] == ["iter", "loss"]
    assert [int(step) for step, _ in rows[1:]] == list(range(200))
    assert all(np.isfinite(float(loss)) for _, loss in rows[1:])
    (mx, my), _, _ = gp.load_gp(out / "gp.gpm")
    assert mx.hyper == my.hyper != gp.GpHyper(1.0, 1.0, 0.01)


def test_train_gp_says_which_axis_stopped_and_fell_back(gct_runs, tmp_path, capsys, monkeypatch):
    """The ascent's step 3 fails: it stops there and both axes keep the
    configured hyperparameters."""
    root, _ = gct_runs[0]
    calls = []
    negative_lml = gp.negative_lml

    def failing_fourth_call(*args):  # the ascent's step 3
        calls.append(None)
        if len(calls) == 4:
            raise NumericsError("matrix is not positive definite")
        return negative_lml(*args)

    monkeypatch.setattr(gp, "negative_lml", failing_fourth_call)
    code, out, manifest, rows = _train_gp(root, tmp_path)
    assert code == 0
    reason = "matrix is not positive definite"
    assert manifest["stopped_early"] == {"step": 3, "reason": reason}
    assert manifest["hyper_fallback"] is True
    assert [int(step) for step, _ in rows[1:]] == [0, 1, 2]
    (mx, my), _, _ = gp.load_gp(out / "gp.gpm")
    assert mx.hyper == my.hyper == gp.GpHyper(1.0, 1.0, 0.01)  # the configured hyperparameters
    assert f"train gp: stopped early at training step 3: {reason}" in (
        capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("workers", [1, 2])
def test_manifests_record_the_gp_workers(gct_runs, tmp_path, monkeypatch, workers):
    """Evaluate's gp_workers is the number of processes the particle filter's
    clouds ran on: 1 for the small pipeline's clouds, which stay below the
    split gate, and, with the gate lowered, as many as the CPUs allow, with
    the records of the serial run.  Train fits in this process, so its
    manifest holds no gp_workers."""
    root, _ = gct_runs[0]
    assert "gp_workers" not in json.loads((root / "model/gp/manifest.json").read_text())
    assert json.loads((root / "eval/manifest.json").read_text())["gp_workers"] == 1
    monkeypatch.setattr(gp, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(gp, "PF_SPLIT_WORK", 0)
    cfg, out = experiment(tmp_path / "exp.ini", root), tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--data", str(root / "data"), "--seed", "7", "--method", "gp"]) == 0
    assert json.loads((out / "manifest.json").read_text())["gp_workers"] == workers
    serial = load_records(root / "eval" / "records.npz")
    records = load_records(out / "records.npz")
    assert list(records["methods"]) == ["gp"]
    for key in ("gp_pred", "gp_post"):
        assert np.array_equal(records[key], serial[key]), key


def test_a_cloud_failing_in_a_child_is_reported_and_the_others_still_score(
        gct_runs, tmp_path, monkeypatch):
    """Test tracklet 3's cloud fails at row 6 in a forked child: evaluate
    records the serial run's error for gp, scores the other methods, and
    leaves no child behind."""
    root, _ = gct_runs[0]
    z_lost = load_dataset(root / "data" / "test", SensorConfig(), dt=1.0).tracklets[3].meas[6]
    pf_step = gp.pf_step

    def losing_cloud(particles, z, *args):
        lost = (z[0] == z_lost[0]) & (z[1] == z_lost[1])
        if lost.any():
            raise NumericsError("cloud lost", lost)
        return pf_step(particles, z, *args)

    monkeypatch.setattr(gp, "pf_step", losing_cloud)
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gp, "PF_SPLIT_WORK", 0)
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(experiment(tmp_path / "exp.ini", root)),
                 "--out", str(out), "--data", str(root / "data"), "--seed", "7"])
    assert code == 1
    assert (out / "failure_report.txt").read_text() == (
        "gp: NumericsError: step 6: row 3: cloud lost\n")
    assert scored_methods(out) == {"ekf", "imm", "mkf"}
    assert json.loads((out / "manifest.json").read_text())["gp_workers"] is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_simulate_into_an_earlier_dataset_replaces_its_tracklets(tmp_path):
    """A smaller dataset simulated over a larger one leaves none of the
    larger one's tracklets: every split file is the one a fresh directory gets."""
    def simulate(out, n_train, n_test, seed):
        cfg = write_config(tmp_path / f"exp-{n_train}.ini", {
            ("dataset", "n_train"): str(n_train), ("dataset", "n_test"): str(n_test)})
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0

    simulate(tmp_path / "data", 4, 3, seed=1)
    simulate(tmp_path / "data", 2, 1, seed=2)
    simulate(tmp_path / "fresh", 2, 1, seed=2)
    for split, n in (("train", 2), ("test", 1)):
        names = sorted(p.name for p in (tmp_path / "data" / split).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "fresh" / split).iterdir())
        assert len(names) == 2 * n
        for name in names:
            assert (tmp_path / "data" / split / name).read_bytes() == (
                tmp_path / "fresh" / split / name).read_bytes(), name
        assert len(load_dataset(tmp_path / "data" / split, SensorConfig(), dt=1.0)) == n


@pytest.mark.parametrize("stage, command", [("model/gp", "train --method gp"),
                                            ("data", "simulate")])
def test_evaluate_refuses_another_commands_output_directory(gct_runs, tmp_path, capsys,
                                                            stage, command):
    """Evaluating into a copy of a train or simulate directory exits 2 with
    one error line and leaves its manifest as it was."""
    root, _ = gct_runs[0]
    out = tmp_path / "out"
    shutil.copytree(root / stage, out)
    manifest = (out / "manifest.json").read_bytes()
    cfg = str(experiment(tmp_path / "exp.ini", root))
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--data", str(root / "data"),
                 "--seed", "7", "--method", "ekf"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --out {out} holds the outputs of '{command}'; "
                   "give evaluate a directory of its own"]
    assert (out / "manifest.json").read_bytes() == manifest
    assert not (out / "records.npz").exists()


def test_evaluate_reruns_into_its_own_directory_with_other_methods(gct_runs, tmp_path):
    root, _ = gct_runs[0]
    cfg = str(experiment(tmp_path / "exp.ini", root))
    out = tmp_path / "eval"
    evaluate = ["evaluate", "--config", cfg, "--out", str(out), "--data", str(root / "data"),
                "--seed", "7", "--method"]
    assert main(evaluate + ["ekf,imm"]) == 0
    assert main(evaluate + ["mkf"]) == 0
    assert json.loads((out / "manifest.json").read_text())["command"] == "evaluate --method mkf"
    assert scored_methods(out) == {"mkf"}


def test_simulate_refuses_another_commands_output_directory(gct_runs, tmp_path, capsys):
    root, _ = gct_runs[0]
    out = tmp_path / "model"
    shutil.copytree(root / "model" / "gp", out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = str(experiment(tmp_path / "exp.ini", root))
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --out {out} holds the outputs of 'train --method gp'; "
                   "give simulate a directory of its own"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("section, key, value, command, cause", [
    ("imm", "modes", "cv,xx", "imm", "unknown mode"),
    ("imm", "init_q", "-1", "imm", "init_q must be positive, got -1.0"),
    ("imm", "init_q", "0", "imm", "init_q must be positive, got 0.0"),
    ("gp", "sigma0_sq", "-1", "gp", "GP hyperparameters must be positive"),
    ("gp", "sigma0_sq", "nan", "gp", "GP hyperparameters must be positive and finite"),
    ("gp", "max_pairs", "0", "gp", "max_pairs must be at least 2, got 0"),
    ("gp", "max_pairs", "1", "gp", "max_pairs must be at least 2, got 1"),
    ("sensor", "sigma_r", "0", "simulate", "sensor noise stds must be positive"),
    ("sensor", "sigma_r", "nan", "simulate", "sensor noise stds must be positive and finite"),
    ("sensor", "origin_x", "inf", "simulate", "sensor origin must be finite"),
    ("dataset", "n_steps", "0", "simulate", "n_steps must be positive"),
    ("dataset", "dt", "0", "simulate", "dt must be positive and finite, got 0.0"),
    ("dataset", "speed", "inf", "simulate", "speed must be positive and finite, got inf"),
    ("dataset", "turn_rate_low_deg", "nan", "simulate", "increasing finite pair, got nan, 15.0"),
    ("dataset", "start_low", "nan", "simulate", "start_box must be finite"),
    ("mkf", "hidden", "0", "mkf", "hidden and dense must be at least 1, got 0,"),
    ("mkf", "clip_norm", "0", "mkf", "clip_norm must be positive and finite, got 0.0"),
    ("mkf", "q_reg", "-1", "evaluate", "q_reg must be finite and >= 0, got -1.0"),
])
def test_config_value_a_model_rejects_exits_2(gct_runs, tmp_path, capsys, section, key, value,
                                              command, cause):
    root, _ = gct_runs[0]
    cfg = str(experiment(tmp_path / "exp.ini", root, {(section, key): value}))
    if command == "simulate":
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "data"), "--seed", "1"]
    elif command == "evaluate":
        argv = ["evaluate", "--config", cfg, "--out", str(tmp_path / "eval"),
                "--data", str(root / "data"), "--method", section, "--seed", "7"]
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


@pytest.mark.parametrize("fraction", ["nan", "0", "1", "1.7", "-0.2"])
def test_simulate_refuses_a_train_fraction_outside_the_unit_interval(tmp_path, capsys, fraction):
    csv_path = tmp_path / "track.csv"  # 20 rows: four 5-row tracklets, off the sensor origin
    csv_path.write_text("t,x,y,vx,vy\n" + "".join(f"{k},{100 + k},50,1,0\n" for k in range(20)))
    cfg = write_config(tmp_path / "exp.ini", {
        ("dataset", "kind"): "csv", ("dataset", "csv_path"): str(csv_path),
        ("dataset", "tracklet_len"): "5", ("dataset", "train_fraction"): fraction})
    out = tmp_path / "data"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: [dataset] train_fraction must be in (0, 1), got {float(fraction)}"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("case, cause", [
    ("directory", "Is a directory"),
    ("undecodable", "'utf-8' codec can't decode byte 0xff"),
    ("before_section", "File contains no section headers"),
    ("duplicate_key", "option 'q' in section 'ekf' already exists"),
    ("no_equals", "Source contains parsing errors"),
    ("negative_seed", "argument --seed: expected a non-negative integer, got '-1'"),
    ("default_section", "unknown config section [DEFAULT]"),
])
def test_bad_command_line_input_exits_2_with_one_error_line(tmp_path, capsys, case, cause):
    cfg = write_config(tmp_path / "exp.ini")
    texts = {"undecodable": b"[models]\ngp = \xff.gpm\n", "before_section": b"q = 1\n[ekf]\n",
             "duplicate_key": b"[ekf]\nq = 1\nq = 2\n", "no_equals": b"[ekf]\nq\n",
             "default_section": b"[DEFAULT]\nn_train = 2\nn_test = 1\n"}
    if case == "directory":
        cfg = tmp_path / "configs"
        cfg.mkdir()
    elif case in texts:
        cfg.write_bytes(texts[case])
    out = tmp_path / "data"
    argv = ["simulate", "--config", str(cfg), "--out", str(out),
            "--seed", "-1" if case == "negative_seed" else "1"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the arguments after its usage lines
        code = exc.code
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert cause in err[-1]
    if case == "default_section":  # parsed, then refused like any unknown section
        assert err == [f"error: {cause}"]
    elif case != "negative_seed":
        assert len(err) == 1 and err[0].startswith(f"error: config file {cfg}: ")
    assert not (out / "manifest.json").exists()


def test_a_config_value_may_hold_a_percent_sign(tmp_path, gps_csv):
    csv_path = gps_csv.rename(tmp_path / "traj%1.csv")
    cfg = write_config(tmp_path / "exp.ini", {("dataset", "kind"): "csv",
                                              ("dataset", "csv_path"): str(csv_path),
                                              ("dataset", "dt"): "0.1", **OFF_PATH_ORIGIN})
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["dataset"]["csv_path"] == str(csv_path)
    assert str(csv_path) in manifest["inputs"]


def test_report_needs_the_records_of_an_evaluate_run(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {tmp_path} has no records.npz; run evaluate first"]


BAD_SPLIT_CAUSES = {
    "non_numeric": "meas_0000.csv line 42: could not convert string to float: 'x'",
    "short_tracklet": "truth_0001.csv has 38 rows, truth_0000.csv 40: "
                      "a split's tracklets share one length",
    "no_meas": "meas_0001.csv is missing",
    "too_short": "truth_0000.csv has 2 rows: a filter needs at least 3",
    "negative_range": "meas_0000.csv line 7: negative range -1",
}


def cut_split(split, rows):
    """Every truth and measurement file of split cut to its header and rows rows."""
    for path in split.glob("*.csv"):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:1 + rows]))


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("case", BAD_SPLIT_CAUSES)
def test_a_bad_dataset_split_exits_2_naming_the_file(gct_runs, tmp_path, capsys, command, case):
    """A split that load_dataset refuses fails train and evaluate with one
    error line naming the split and the file, not with a traceback."""
    root, _ = gct_runs[0]
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    split = data / ("train" if command == "train" else "test")
    if case == "non_numeric":
        with (split / "meas_0000.csv").open("a") as fh:
            fh.write("1,2,x\n")
    elif case == "short_tracklet":  # 40 rows of truth and of measurements, cut to 38
        for kind in ("truth", "meas"):
            path = split / f"{kind}_0001.csv"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))
    elif case == "too_short":  # init_track needs rows 0 and 1, the first step row 2
        cut_split(split, EVAL_START)
    elif case == "negative_range":  # row 5, on line 7 after the header
        path = split / "meas_0000.csv"
        lines = path.read_text().splitlines(keepends=True)
        t, _, bearing = lines[6].split(",")
        lines[6] = f"{t},-1,{bearing}"
        path.write_text("".join(lines))
    else:
        (split / "meas_0001.csv").unlink()
    cfg = str(experiment(tmp_path / "exp.ini", root))
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--data", str(data),
            "--seed", "7", "--method", "imm" if command == "train" else "ekf"]
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == [f"error: dataset split {split}: {BAD_SPLIT_CAUSES[case]}"]


def test_a_split_of_one_filtered_row_is_scored(gct_runs, tmp_path):
    root, _ = gct_runs[0]
    data = tmp_path / "data"
    shutil.copytree(root / "data", data)
    cut_split(data / "test", EVAL_START + 1)
    out = tmp_path / "eval"
    cfg = str(experiment(tmp_path / "exp.ini", root))
    assert main(["evaluate", "--config", cfg, "--out", str(out), "--data", str(data),
                 "--seed", "7"]) == 0
    records = load_records(out / "records.npz")
    assert all(records[f"{m}_post"].shape == (4, 1, 4) for m in ("ekf", *TRAINED))
