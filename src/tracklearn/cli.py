"""Command-line entry point: simulate, train, evaluate, report.

Every command writes a manifest.json holding the resolved configuration,
the seeds, SHA-256 hashes of inputs and outputs, numpy's BLAS thread count
and the allocator's thresholds, so a run can be reproduced exactly from its
output directory.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, build
from .ekf import EVAL_START
from .errors import ConfigError, CsvFormatError, EmptyDatasetError, GeometryError
from .evaluate import make_report
from .gp import GpHyper, PfSettings, gp_fit, load_gp, run_pf, save_gp
from .imm import ImmConfig, default_params, load_imm, run_ekf, run_imm, save_imm, train_imm
from .mkf import MkfConfig, init_weights, input_scale_from, load_mkf, run_mkf, save_mkf, train_mkf
from .simulate import Dataset, ingest_csv, load_dataset, make_dataset, save_dataset
from .statespace import SensorConfig, polar_to_cartesian

METHODS = ("ekf", "gp", "imm", "mkf")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): _sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _hash_split(directory: Path) -> str:
    """SHA-256 of a dataset split's sha256sum-style listing ("<hash>  <name>"
    per file, in name order): two splits of the same CSV bytes hash alike."""
    listing = "".join(f"{digest}  {name}\n" for name, digest in _hash_tree(directory).items())
    return hashlib.sha256(listing.encode()).hexdigest()


def _numpy_openblas():
    """The OpenBLAS library that the installed numpy bundles, or None."""
    found = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(str(found[0])) if found else None
    except OSError:
        return None


@functools.cache
def _pin_blas() -> dict:
    """Pin numpy's OpenBLAS to one thread, once per process.  Returns the
    thread count it reports, "unpinned" where the library or its symbol is
    missing.

    numpy's LAPACK factors a GP gram differently at each thread count, so
    its pool is pinned: the records then do not depend on the machine.
    """
    blas = _numpy_openblas()
    set_threads = getattr(blas, "scipy_openblas_set_num_threads64_", None)
    get_threads = getattr(blas, "scipy_openblas_get_num_threads64_", None)
    if not (set_threads and get_threads):
        return {"numpy": "unpinned"}
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    return {"numpy": get_threads()}


# glibc's mallopt parameters, and the values _pin_malloc gives them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # the ceiling glibc accepts on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio glibc's own sliding rule keeps


@functools.cache
def _pin_malloc():
    """Keep freed arrays below 32 MiB in the heap, once per process.  Returns
    the two thresholds it set, "unpinned" where libc has no mallopt or
    refuses a value.

    With glibc's defaults, every N x N temporary of a GP ascent step (200 KB
    at N = 160) is unmapped or trimmed when freed and faulted in again: about
    212 minor faults per step.  Pinned, a step makes none once the heap has
    grown to hold them.  Both thresholds are needed: setting either one
    switches off glibc's sliding mmap threshold, so the trim threshold alone
    mmaps every N x N array.  The processes that gp._in_processes forks
    inherit the setting.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to ask
        return "unpinned"
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # the mmap threshold first: it is the value glibc can refuse
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}
    return "unpinned"


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, seed: int,
                    inputs: dict, wallclock: float, **fields) -> None:
    manifest = {
        "tool": f"tracklearn {__version__}",
        "command": command,
        "seed": seed,
        "config": cfg.resolved(),
        "inputs": inputs,
        "outputs": _hash_tree(out_dir),
        "wallclock_s": round(wallclock, 3),
        "blas_threads": _pin_blas(),
        "malloc": _pin_malloc(),
        **fields,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_manifest(directory: Path) -> dict:
    path = directory / "manifest.json"
    if not path.exists():
        raise ConfigError(f"{directory} has no manifest.json; not a tracklearn output directory")
    return json.loads(path.read_text())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, a)


def _check_sensor_match(a: SensorConfig, b: SensorConfig, what: str) -> None:
    same = (
        np.allclose(a.origin, b.origin, rtol=0, atol=1e-12)
        and _close(a.sigma_r, b.sigma_r)
        and _close(a.sigma_a, b.sigma_a)
    )
    if not same:
        raise ConfigError(f"sensor parameters of {what} do not match the dataset")


def _at_least(cfg: ExperimentConfig, section: str, key: str, low: int) -> int:
    value = cfg.inum(section, key)
    if value < low:
        raise ConfigError(f"[{section}] {key} must be at least {low}, got {value}")
    return value


def _positive(cfg: ExperimentConfig, section: str, key: str) -> float:
    value = cfg.fnum(section, key)
    if not 0.0 < value < np.inf:
        raise ConfigError(f"[{section}] {key} must be positive and finite, got {value}")
    return value


def _dataset_dir(cfg: ExperimentConfig, args) -> Path:
    path = getattr(args, "data", None) or cfg.text("dataset", "path")
    if not path:
        raise ConfigError("no dataset directory: set [dataset] path or pass --data")
    return Path(path)


def _load_split(cfg: ExperimentConfig, args, name: str) -> tuple[Dataset, dict]:
    """The dataset's split name ("train" or "test"), and the manifest inputs
    entry {split directory: _hash_split of it} that identifies it by content.
    A split that load_dataset refuses is a ConfigError naming its directory."""
    root = _dataset_dir(cfg, args)
    manifest = _load_manifest(root)
    stored_sensor = ExperimentConfig(manifest["config"]).sensor()
    _check_sensor_match(cfg.sensor(), stored_sensor, "the experiment config")
    dt = float(manifest["config"]["dataset"]["dt"])
    try:
        split = load_dataset(root / name, stored_sensor, dt=dt)
    except (CsvFormatError, EmptyDatasetError) as exc:
        raise ConfigError(f"dataset split {root / name}: {exc}") from exc
    return split, {str(root / name): _hash_split(root / name)}


# -- subcommands -----------------------------------------------------------------


def _refuse_another_commands_out(out: Path, command: str) -> None:
    """ConfigError when --out holds the manifest of a command other than this
    one: one whose command string is neither command nor command followed by
    more arguments (evaluate's command is "evaluate", whatever its methods)."""
    previous = _load_manifest(out)["command"] if (out / "manifest.json").exists() else command
    if not f"{previous} ".startswith(f"{command} "):
        raise ConfigError(f"--out {out} holds the outputs of '{previous}'; "
                          f"give {command} a directory of its own")


def cmd_simulate(args) -> int:
    """Write a dataset into --out: train/ and test/ splits of truth_*.csv and
    meas_*.csv, and a manifest.  A rerun into the same --out replaces the
    earlier run's tracklets."""
    cfg = ExperimentConfig.load(args.config)
    out = Path(args.out)
    _refuse_another_commands_out(out, "simulate")
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    sensor = cfg.sensor()
    kind = cfg.text("dataset", "kind")
    inputs = {}
    # every filter starts its track on rows 0 and 1 and steps from EVAL_START on
    if kind == "gct":
        gct = cfg.gct()
        _at_least(cfg, "dataset", "n_steps", EVAL_START + 1)
        n_train, n_test = (_at_least(cfg, "dataset", key, 1) for key in ("n_train", "n_test"))
        train = make_dataset(n_train, gct, sensor, seed=args.seed)
        test = make_dataset(n_test, gct, sensor, seed=args.seed + 1)
    elif kind == "csv":
        csv_path = Path(cfg.text("dataset", "csv_path"))
        if not csv_path.exists():
            raise ConfigError(f"[dataset] csv_path {csv_path} does not exist")
        inputs[str(csv_path)] = _sha256(csv_path)
        tracklet_len = _at_least(cfg, "dataset", "tracklet_len", EVAL_START + 1)
        try:
            whole = ingest_csv(csv_path, sensor, tracklet_len, rng_seed=args.seed,
                               dt=_positive(cfg, "dataset", "dt"))
        except (CsvFormatError, EmptyDatasetError, GeometryError) as exc:
            raise ConfigError(f"[dataset] csv_path {csv_path}: {exc}") from exc
        fraction = cfg.fnum("dataset", "train_fraction")
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"[dataset] train_fraction must be in (0, 1), got {fraction}")
        n_train = int(round(len(whole) * fraction))
        if n_train == 0 or n_train == len(whole):
            raise ConfigError("train_fraction leaves an empty split")
        train = Dataset(tracklets=whole.tracklets[:n_train], sensor=sensor)
        test = Dataset(tracklets=whole.tracklets[n_train:], sensor=sensor)
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    for name, split in (("train", train), ("test", test)):
        for stale in (*(out / name).glob("truth_*.csv"), *(out / name).glob("meas_*.csv")):
            stale.unlink()
        save_dataset(out / name, split)
    cfg.values["dataset"]["path"] = str(out)
    _write_manifest(out, "simulate", cfg, args.seed, inputs, time.time() - started)
    print(f"simulate: {len(train)} train / {len(test)} test tracklets -> {out}")
    return 0


def _train_gp(cfg: ExperimentConfig, train: Dataset, out: Path, seed: int):
    hyper0 = build(
        "gp", GpHyper,
        sigma0_sq=cfg.fnum("gp", "sigma0_sq"),
        length_sq=cfg.fnum("gp", "length_sq"),
        noise_sq=cfg.fnum("gp", "noise_sq"),
    )
    models = gp_fit(train.tracklets, hyper0, max_pairs=_at_least(cfg, "gp", "max_pairs", 2),
                    optimize=cfg.flag("gp", "optimize_hyper"), seed=seed)
    save_gp(out / "gp.gpm", models, dt=train.dt, sensor=train.sensor)
    fit = models[0].hyper_fit
    if fit is None:  # the hyperparameters were given, not fitted
        return [], {"stopped_early": None, "hyper_fallback": None}
    return fit.history, {"stopped_early": fit.stopped, "hyper_fallback": fit.fell_back}


def _train_imm(cfg: ExperimentConfig, train: Dataset, out: Path, seed: int):
    imm_cfg = build(
        "imm", ImmConfig,
        modes=tuple(m.strip() for m in cfg.text("imm", "modes").split(",")),
        train_r=cfg.flag("imm", "train_r"),
    )
    params0 = build("imm", default_params, sensor=train.sensor, cfg=imm_cfg,
                    init_q=cfg.fnum("imm", "init_q"), init_omega=cfg.fnum("imm", "init_omega"))
    params, history, stopped = train_imm(params0, train.tracklets, train.sensor,
                                         steps=cfg.inum("imm", "steps"), lr=cfg.fnum("imm", "lr"),
                                         seed=seed, cfg=imm_cfg)
    save_imm(out / "imm.txt", params, dt=train.dt, sensor=train.sensor)
    return history, {"stopped_early": stopped}


def _train_mkf(cfg: ExperimentConfig, train: Dataset, out: Path, seed: int):
    mkf_cfg = build(
        "mkf", MkfConfig,
        hidden=cfg.inum("mkf", "hidden"),
        dense=cfg.inum("mkf", "dense"),
        q_reg=cfg.fnum("mkf", "q_reg"),
        clip_norm=cfg.fnum("mkf", "clip_norm"),
    )
    w0 = init_weights(seed=seed, hidden=mkf_cfg.hidden, dense=mkf_cfg.dense,
                      input_scale=input_scale_from(train.tracklets, train.sensor))
    weights, history, stopped = train_mkf(w0, train.tracklets, train.sensor,
                                          iterations=cfg.inum("mkf", "iterations"),
                                          lr=cfg.fnum("mkf", "lr"), seed=seed, cfg=mkf_cfg)
    save_mkf(out / "mkf.npz", weights, dt=train.dt, sensor=train.sensor)
    return history, {"stopped_early": stopped}


def cmd_train(args) -> int:
    """Train one method into --out: its model file, loss_history.csv and a manifest.

    loss_history.csv has one "iter,loss" row per training step; the GP's are
    the steps of its one hyperparameter ascent for both axes (gp.gp_fit), and
    it has none when its hyperparameters are not fitted.  The manifest's
    stopped_early is None after every step ran, else ad.minimize's {"step",
    "reason"}.  The GP's hyper_fallback says whether the ascent kept the
    configured hyperparameters; both are None when the GP is not fitted.  The
    manifest's inputs identify the train split by content (_hash_split).
    """
    cfg = ExperimentConfig.load(args.config)
    if args.method not in ("gp", "imm", "mkf"):
        raise ConfigError(f"--method must be gp, imm or mkf, got {args.method!r}")
    out = Path(args.out)
    command = f"train --method {args.method}"
    _refuse_another_commands_out(out, command)
    out.mkdir(parents=True, exist_ok=True)
    train, inputs = _load_split(cfg, args, "train")
    started = time.time()
    history, fields = {"gp": _train_gp, "imm": _train_imm, "mkf": _train_mkf}[args.method](
        cfg, train, out, args.seed
    )
    wallclock = time.time() - started
    with (out / "loss_history.csv").open("w") as fh:
        fh.write("iter,loss\n")
        for step, loss in history:
            fh.write(f"{step},{loss:.17g}\n")
    _write_manifest(out, command, cfg, args.seed, inputs, wallclock, **fields)
    if stop := fields["stopped_early"]:
        print(f"train {args.method}: stopped early at training step {stop['step']}: "
              f"{stop['reason']}")
    print(f"train {args.method}: wallclock {wallclock:.1f} s -> {out}")
    return 0


def load_records(directory) -> dict:
    """The records mapping (see evaluate.make_report) that evaluate saved in directory."""
    with np.load(Path(directory) / "records.npz", allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def cmd_evaluate(args) -> int:
    """Filter the test split with each method into --out: records.npz and the
    report files when a method ran, failure_report.txt when one failed, and
    a manifest; the files of an earlier run that this one does not write are
    deleted.  An --out that another command wrote is refused; an earlier
    evaluate's, with any methods, is rewritten.
    The manifest's gp_workers is the number of processes the particle
    filter's clouds ran on (gp.run_pf; 1 when serial), None when it did not
    run to the end."""
    cfg = ExperimentConfig.load(args.config)
    out = Path(args.out)
    _refuse_another_commands_out(out, "evaluate")
    out.mkdir(parents=True, exist_ok=True)
    test, inputs = _load_split(cfg, args, "test")
    methods = [m.strip() for m in (args.method or "ekf,gp,imm,mkf").split(",")]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    started = time.time()
    tracklets, sensor = test.tracklets, test.sensor
    truth = np.stack([trk.truth[EVAL_START:] for trk in tracklets])
    meas = np.stack([polar_to_cartesian(*trk.meas.T, sensor)[EVAL_START:] for trk in tracklets])
    estimates = {}
    failures = {}
    gp_workers = None
    for method in methods:
        try:
            if method == "ekf":
                estimates["ekf"] = run_ekf(tracklets, sensor, _positive(cfg, "ekf", "q"))[:2]
                continue
            model_text = cfg.text("models", method)
            if not model_text:
                raise ConfigError(f"[models] {method} not set")
            model_path = Path(model_text)
            if not model_path.exists():
                raise ConfigError(f"[models] {method} missing: {model_path}")
            inputs[str(model_path)] = _sha256(model_path)
            load = {"gp": load_gp, "imm": load_imm, "mkf": load_mkf}[method]
            model, dt, model_sensor = load(model_path)
            _check_sensor_match(sensor, model_sensor, f"model {model_path}")
            if not _close(test.dt, dt):  # a learned model maps one step to the next
                raise ConfigError(f"dt {dt:g} s of model {model_path} does not match the "
                                  f"dataset's dt {test.dt:g} s")
            if method == "gp":
                settings = build(
                    "gp", PfSettings,
                    n_particles=cfg.inum("gp", "n_particles"),
                    sigma_p=cfg.fnum("gp", "sigma_p"),
                )
                pred, post, _, _, gp_workers = run_pf(tracklets, sensor, model, settings, args.seed)
                estimates["gp"] = pred, post
            elif method == "imm":
                estimates["imm"] = run_imm(model, tracklets, sensor, ImmConfig(model.modes))[:2]
            elif method == "mkf":
                mkf_cfg = build("mkf", MkfConfig, q_reg=cfg.fnum("mkf", "q_reg"))
                estimates["mkf"] = run_mkf(tracklets, sensor, model, mkf_cfg)[:2]
        except ConfigError:
            raise
        except Exception as exc:  # keep other methods alive, report at the end
            failures[method] = f"{type(exc).__name__}: {exc}"
    if estimates:
        records = {"methods": np.array(sorted(estimates))}
        for method, (pred, post) in estimates.items():
            records |= {f"{method}_pred": pred, f"{method}_post": post,
                        f"{method}_truth": truth, f"{method}_meas": meas}
        np.savez(out / "records.npz", **records)
        make_report(out, records)
    else:  # an earlier run's records and report would pass for this run's outputs
        for name in ("records.npz", "scores.csv", "summary.txt", "noise_level.csv", "series_*.csv"):
            for path in out.glob(name):
                path.unlink()
    if failures:
        report = "\n".join(f"{m}: {msg}" for m, msg in sorted(failures.items()))
        (out / "failure_report.txt").write_text(report + "\n")
    else:
        (out / "failure_report.txt").unlink(missing_ok=True)
    _write_manifest(out, f"evaluate --method {','.join(methods)}", cfg, args.seed, inputs,
                    time.time() - started, gp_workers=gp_workers)
    print((out / "summary.txt").read_text() if estimates else "evaluate: nothing ran")
    if failures:
        print(f"evaluate: {len(failures)} method(s) failed, see failure_report.txt",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    if not (out / "records.npz").exists():
        raise ConfigError(f"{out} has no records.npz; run evaluate first")
    make_report(out, load_records(out))
    print((out / "summary.txt").read_text())
    return 0


def _seed(text: str) -> int:
    """--seed's type: numpy's SeedSequence takes non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracklearn",
        description="Simulate, train, and benchmark learned motion models for "
                    "single-target tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_seed, required=True, help="RNG seed (mandatory)")
        p.add_argument("--data", help="dataset directory (overrides [dataset] path)")

    p_sim = sub.add_parser("simulate", help="generate a dataset directory")
    common(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_train = sub.add_parser("train", help="train one method on a dataset")
    common(p_train)
    p_train.add_argument("--method", required=True, help="gp | imm | mkf")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("evaluate", help="run filters over the test set and score them")
    common(p_eval)
    p_eval.add_argument("--method", help="comma list among ekf,gp,imm,mkf (default: all)")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_rep = sub.add_parser("report", help="regenerate report files from records.npz")
    p_rep.add_argument("--out", required=True, help="evaluation directory")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    _pin_blas()
    _pin_malloc()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
