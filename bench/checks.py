"""Output checks: the program's results against computations made apart from it.

`gather` reads one round's output directory and computes the independent
side of every comparison (its own CV-EKF, a dense GP posterior, central
differences); each check is then a pure function of that evidence and raises
CheckFailed.  `self_test` corrupts the evidence once per check and requires
the check to fail, so a check that cannot fail is caught.
"""

from __future__ import annotations

import copy
import csv
from pathlib import Path

import numpy as np

import tracklearn.autodiff as ad
from tracklearn.gp import load_gp
from tracklearn.imm import ImmConfig, imm_nll, load_imm
from tracklearn.mkf import WEIGHT_NAMES, load_mkf, mkf_loss, training_sequences
from tracklearn.statespace import SensorConfig, Tracklet

from workloads import Workload, gps_trajectory

METHODS = ("ekf", "gp", "imm", "mkf")
EVAL_START = 2  # the first two measurements initialise every filter
EKF_ATOL_M = 1e-6  # own EKF vs program EKF, metres and m/s
GP_RTOL = 1e-6  # dense posterior vs predict_batch, relative to the output / signal scale
GRAD_RTOL = 1e-5  # tape directional derivative vs central difference
FD_STEP = 1e-5
GRAD_STEPS = 25  # measurements in the tracklet prefix the gradients are checked on


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- reading the program's outputs -----------------------------------------------


def read_split(directory: Path) -> tuple[np.ndarray, np.ndarray]:
    """(truth (n, T, 4), meas (n, T, 2)) from a dataset split's CSV files."""
    truths = sorted(directory.glob("truth_*.csv"))
    truth = [np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[:, 1:] for p in truths]
    meas = [np.loadtxt(directory / p.name.replace("truth_", "meas_"), delimiter=",",
                       skiprows=1, ndmin=2)[:, 1:] for p in truths]
    return np.stack(truth), np.stack(meas)


def read_records(eval_dir: Path) -> dict:
    with np.load(eval_dir / "records.npz", allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def read_scores(eval_dir: Path) -> dict:
    with (eval_dir / "scores.csv").open() as fh:
        return {(r["method"], r["phase"]): (float(r["avg"]), float(r["rel"]))
                for r in csv.DictReader(fh)}


def read_history(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows.reshape(-1, 2)


def pooled_rmse(est: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((est[..., :2] - truth[..., :2]) ** 2, axis=-1))))


# -- independent computations ----------------------------------------------------


def _sensor(workload: Workload) -> tuple[np.ndarray, float, float]:
    origin = np.array([workload.number("sensor", "origin_x"), workload.number("sensor", "origin_y")])
    return origin, workload.number("sensor", "sigma_r"), workload.number("sensor", "sigma_a")


def _wrap(angle):
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


def reference_ekf(meas: np.ndarray, origin, sigma_r: float, sigma_a: float, dt: float, q: float):
    """Textbook CV-EKF: CWNA process noise, range-bearing Jacobian, Joseph-form update,
    two-point initialisation.  Returns (pred, post) means for rows EVAL_START.."""
    r_cov = np.diag([sigma_r**2, sigma_a**2])

    def to_cart(z):
        c, s = np.cos(z[1]), np.sin(z[1])
        jac = np.array([[c, -z[0] * s], [s, z[0] * c]])
        return origin + z[0] * np.array([c, s]), jac @ r_cov @ jac.T

    (p0, r0), (p1, r1) = to_cart(meas[0]), to_cart(meas[1])
    x = np.concatenate([p1, (p1 - p0) / dt])
    cov = np.block([[r1, r1 / dt], [r1 / dt, (r0 + r1) / dt**2]])
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    i2 = np.eye(2)
    qm = q * np.block([[dt**3 / 3 * i2, dt**2 / 2 * i2], [dt**2 / 2 * i2, dt * i2]])
    preds, posts = [], []
    for z in meas[EVAL_START:]:
        x = f @ x
        cov = f @ cov @ f.T + qm
        preds.append(x)
        d = x[:2] - origin
        rng_sq = d @ d
        h = np.zeros((2, 4))
        h[0, :2] = d / np.sqrt(rng_sq)
        h[1, :2] = np.array([-d[1], d[0]]) / rng_sq
        nu = np.array([z[0] - np.sqrt(rng_sq), _wrap(z[1] - np.arctan2(d[1], d[0]))])
        gain = np.linalg.solve(h @ cov @ h.T + r_cov, h @ cov).T
        x = x + gain @ nu
        ikh = np.eye(4) - gain @ h
        cov = ikh @ cov @ ikh.T + gain @ r_cov @ gain.T
        posts.append(x)
    return np.array(preds), np.array(posts)


def read_gpm(path: Path) -> dict:
    """Training inputs, outputs, stored solve vectors and hyperparameters of a GPM1 file."""
    fields, inputs, z = {}, [], {"x": [], "y": []}
    for line in path.read_text().splitlines()[1:]:
        tag, *vals = line.split()
        if tag == "u":
            inputs.append([float(v) for v in vals])
        elif tag in ("z_x", "z_y"):
            z[tag[2]].append([float(v) for v in vals])
        else:
            fields[tag] = [float(v) for v in vals]
    return {"inputs": np.array(inputs), "z": {k: np.array(v) for k, v in z.items()},
            "hyper": {k: fields[f"hyper_{k}"] for k in ("x", "y")}}


def dense_posterior(inputs, outputs, hyper, queries):
    """GP posterior with np.linalg.solve on K + noise I: (means, variances, solve vector)."""
    s0, l2, noise = hyper

    def k(a, b):
        sq = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return s0 * np.exp(-0.5 * sq / l2)

    gram = k(inputs, inputs) + noise * np.eye(len(inputs))
    k_star = k(inputs, queries)
    means = k_star.T @ np.linalg.solve(gram, outputs)
    variances = s0 - np.einsum("nm,nm->m", k_star, np.linalg.solve(gram, k_star))
    return means, np.clip(variances, 0.0, s0), np.linalg.solve(gram, outputs)


def _directional(loss_at, grads: dict, values: dict, rng) -> tuple[float, float]:
    """(tape derivative along a random unit direction, central difference along it)."""
    direction = {k: rng.standard_normal(np.shape(v)) for k, v in values.items()}
    norm = np.sqrt(sum(np.sum(d**2) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}
    tape = float(sum(np.sum(grads[k] * direction[k]) for k in values))
    plus = loss_at({k: v + FD_STEP * direction[k] for k, v in values.items()})
    minus = loss_at({k: v - FD_STEP * direction[k] for k, v in values.items()})
    return tape, (plus - minus) / (2.0 * FD_STEP)


def imm_gradient(model: Path, trk: Tracklet, sensor: SensorConfig, rng) -> tuple[float, float]:
    params, _, _ = load_imm(model)
    cfg = ImmConfig(modes=params.modes)
    values = params.to_dict(train_r=cfg.train_r)
    loss, leaves = imm_nll(params, trk, sensor, cfg)
    ad.backward(loss)
    grads = {k: leaves[k].grad.reshape(np.shape(values[k])) for k in values}

    def loss_at(vals):
        return imm_nll(params.with_dict(vals), trk, sensor, cfg)[0].scalar()

    return _directional(loss_at, grads, values, rng)


def mkf_gradient(model: Path, trk: Tracklet, sensor: SensorConfig, rng) -> tuple[float, float]:
    weights, _, _ = load_mkf(model)
    inputs, labels = training_sequences(trk, sensor, weights.input_scale)

    def record(w):
        tape = ad.make_tape()
        wvars = {name: ad.var(tape, getattr(w, name)) for name in WEIGHT_NAMES}
        return mkf_loss(wvars, inputs, labels, w.hidden), wvars

    loss, wvars = record(weights)
    ad.backward(loss)
    values = weights.to_dict()
    grads = {name: wvars[name].grad for name in values}
    return _directional(lambda vals: record(weights.with_dict(vals))[0].scalar(), grads, values, rng)


def gather(round_dir: Path, workload: Workload, data_seed: int) -> dict:
    """Everything the checks compare, read from one round and computed apart from the program."""
    origin, sigma_r, sigma_a = _sensor(workload)
    dt = workload.number("dataset", "dt")
    sensor = SensorConfig(origin=origin, sigma_r=sigma_r, sigma_a=sigma_a)
    records = read_records(round_dir / "eval")
    test_truth, test_meas = read_split(round_dir / "data" / "test")
    train_truth, _ = read_split(round_dir / "data" / "train")
    ev = {
        "records": records,
        "scores": read_scores(round_dir / "eval"),
        "test_truth": test_truth,
        "test_meas": test_meas,
        "train_truth": train_truth,
        "origin": origin,
    }
    refs = [reference_ekf(m, origin, sigma_r, sigma_a, dt, workload.number("ekf", "q"))
            for m in test_meas]
    ev["ekf_ref"] = (np.stack([r[0] for r in refs]), np.stack([r[1] for r in refs]))
    if workload.kind == "csv":
        ev["trajectory"] = gps_trajectory(data_seed, **workload.csv)
        ev["speed"] = workload.csv["speed"]
    else:
        ev["speed"] = workload.number("dataset", "speed")

    rng = np.random.default_rng(20241013)
    gpm = read_gpm(round_dir / "model" / "gp" / "gp.gpm")
    models, _, _ = load_gp(round_dir / "model" / "gp" / "gp.gpm")
    vel = test_truth[:, :, 2:].reshape(-1, 2)
    queries = vel[rng.choice(len(vel), 200)] + rng.normal(0.0, 0.5, (200, 2))
    ev["gp"] = {}
    for axis, model in zip("xy", models):
        dense = dense_posterior(gpm["inputs"], gpm["z"][axis][:, 0], gpm["hyper"][axis], queries)
        ev["gp"][axis] = {"program": (*model.predict_batch(queries), gpm["z"][axis][:, 1]),
                          "dense": dense, "scale": (np.max(np.abs(gpm["z"][axis][:, 0])),
                                                    gpm["hyper"][axis][0])}

    trk = Tracklet(dt=dt, truth=test_truth[0, :GRAD_STEPS], meas=test_meas[0, :GRAD_STEPS])
    ev["imm_grad"] = imm_gradient(round_dir / "model" / "imm" / "imm.txt", trk, sensor, rng)
    ev["mkf_grad"] = mkf_gradient(round_dir / "model" / "mkf" / "mkf.npz", trk, sensor, rng)

    arrays = {f"records.{k}": v for k, v in records.items() if v.dtype.kind == "f"}
    for method in ("imm", "mkf"):
        arrays[f"{method}.loss_history"] = read_history(round_dir / "model" / method / "loss_history.csv")
    with np.load(round_dir / "model" / "mkf" / "mkf.npz", allow_pickle=False) as data:
        arrays.update({f"mkf.{k}": data[k] for k in data.files if data[k].dtype.kind == "f"})
    arrays["gp.gpm"] = np.concatenate([gpm["inputs"].ravel(), gpm["z"]["x"].ravel(), gpm["z"]["y"].ravel()])
    ev["arrays"] = arrays
    return ev


# -- checks -----------------------------------------------------------------------


def check_finite(ev):
    bad = [name for name, arr in ev["arrays"].items() if not np.all(np.isfinite(arr))]
    _require(not bad, f"non-finite values in {', '.join(bad)}")


def check_records_align(ev):
    """Records hold every method, aligned with the test split from step EVAL_START on."""
    rec = ev["records"]
    truth = ev["test_truth"][:, EVAL_START:]
    meas = ev["test_meas"][:, EVAL_START:]
    cart = ev["origin"] + meas[..., :1] * np.stack([np.cos(meas[..., 1]), np.sin(meas[..., 1])], -1)
    for m in METHODS:
        _require(f"{m}_post" in rec, f"records.npz has no {m} rows")
        _require(np.array_equal(rec[f"{m}_truth"], truth), f"{m} truth rows differ from the test split")
        _require(np.allclose(rec[f"{m}_meas"], cart, rtol=0, atol=1e-9),
                 f"{m} measurement rows differ from the converted test measurements")


def check_ekf_reference(ev):
    pred, post = ev["ekf_ref"]
    for phase, ref in (("pred", pred), ("post", post)):
        err = np.max(np.abs(ev["records"][f"ekf_{phase}"] - ref))
        _require(err <= EKF_ATOL_M, f"ekf {phase} differs from the reference EKF by {err:.3g}")


def check_scores(ev):
    """scores.csv avg and rel equal the pooled RMSEs recomputed from records.npz."""
    rec = ev["records"]
    for m in METHODS:
        level = pooled_rmse(rec[f"{m}_meas"], rec[f"{m}_truth"])
        for phase in ("pred", "post"):
            avg = pooled_rmse(rec[f"{m}_{phase}"], rec[f"{m}_truth"])
            got_avg, got_rel = ev["scores"][(m, phase)]
            _require(np.isclose(got_avg, avg, rtol=1e-9, atol=0),
                     f"scores.csv {m} {phase} avg {got_avg} != recomputed {avg}")
            _require(np.isclose(got_rel, avg / level, rtol=1e-9, atol=0),
                     f"scores.csv {m} {phase} rel {got_rel} != recomputed {avg / level}")


def check_ekf_beats_measurements(ev):
    rec = ev["records"]
    rel = pooled_rmse(rec["ekf_post"], rec["ekf_truth"]) / pooled_rmse(rec["ekf_meas"], rec["ekf_truth"])
    _require(rel < 1.0, f"EKF post rel {rel:.4f} is not below the raw measurements' 1")


def check_truth(ev):
    """Truth keeps the configured speed; CSV truth equals the trajectory cut into windows."""
    for split in ("train_truth", "test_truth"):
        speed = np.hypot(ev[split][..., 2], ev[split][..., 3])
        err = np.max(np.abs(speed - ev["speed"]))
        _require(err <= 1e-9 * ev["speed"], f"{split} speed deviates from {ev['speed']} by {err:.3g}")
    if "trajectory" in ev:
        tracklets = np.concatenate([ev["train_truth"], ev["test_truth"]])
        n, length = tracklets.shape[:2]
        windows = ev["trajectory"][: n * length, 1:].reshape(n, length, 4)
        _require(np.array_equal(tracklets, windows), "ingested truth differs from the trajectory CSV")


def check_gp_dense(ev):
    for axis, sides in ev["gp"].items():
        y_scale, s0 = sides["scale"]
        (pm, pv, palpha), (dm, dv, dalpha) = sides["program"], sides["dense"]
        for what, got, ref, scale in (("mean", pm, dm, y_scale), ("variance", pv, dv, s0),
                                      ("solve vector", palpha, dalpha, np.max(np.abs(dalpha)))):
            err = np.max(np.abs(got - ref))
            _require(err <= GP_RTOL * scale, f"GP {axis} {what} differs from the dense posterior by {err:.3g}")


def check_gradients(ev):
    for name in ("imm_grad", "mkf_grad"):
        tape, fd = ev[name]
        _require(abs(tape - fd) <= GRAD_RTOL * max(1.0, abs(fd)),
                 f"{name}: tape directional derivative {tape:.9g} vs central difference {fd:.9g}")


CHECKS = {
    "finite": check_finite,
    "records_align": check_records_align,
    "ekf_reference": check_ekf_reference,
    "scores": check_scores,
    "ekf_beats_measurements": check_ekf_beats_measurements,
    "truth": check_truth,
    "gp_dense": check_gp_dense,
    "gradients": check_gradients,
}


def _bump(arr, index, delta):
    arr[index] += delta


def _corrupt(name: str, ev: dict) -> dict:
    """A copy of the evidence with one output damaged so that check `name` must fail."""
    ev = copy.deepcopy(ev)
    rec = ev["records"]
    if name == "finite":
        rec["gp_post"][0, 0, 0] = np.nan
        ev["arrays"]["records.gp_post"] = rec["gp_post"]
    elif name == "records_align":
        _bump(rec["imm_truth"], (0, 0, 0), 1.0)
    elif name == "ekf_reference":
        _bump(rec["ekf_post"], (0, -1, 1), 1e-4)
    elif name == "scores":
        avg, rel = ev["scores"][("mkf", "post")]
        ev["scores"][("mkf", "post")] = (avg * (1 + 1e-6), rel)
    elif name == "ekf_beats_measurements":
        rec["ekf_post"][..., :2] = rec["ekf_truth"][..., :2] + 1.5 * (rec["ekf_meas"] - rec["ekf_truth"][..., :2])
    elif name == "truth":
        ev["test_truth"][0, 3, 2:] *= 1.0 + 1e-6
    elif name == "gp_dense":
        _bump(ev["gp"]["y"]["program"][0], 0, 1e-3)
    elif name == "gradients":
        tape, fd = ev["mkf_grad"]
        ev["mkf_grad"] = (tape + 1e-3 * max(1.0, abs(fd)), fd)
    return ev


def run_checks(ev: dict) -> list[tuple[str, str | None]]:
    """[(check, failure message or None)] for every check."""
    results = []
    for name, check in CHECKS.items():
        try:
            check(ev)
            results.append((name, None))
        except CheckFailed as exc:
            results.append((name, str(exc)))
        except (KeyError, IndexError, ValueError) as exc:
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results


def self_test(ev: dict) -> list[tuple[str, str | None]]:
    """[(check, message or None)]: each check must fail on its corrupted copy."""
    results = []
    for name, check in CHECKS.items():
        try:
            check(_corrupt(name, ev))
            results.append((f"self-test:{name}", "check passed on corrupted output"))
        except CheckFailed:
            results.append((f"self-test:{name}", None))
    return results


def post_rmse(round_dirs: list[Path]) -> dict:
    """Post-update position RMSE per method, pooled over every tracklet of the given rounds."""
    recs = [read_records(d / "eval") for d in round_dirs]
    return {m: pooled_rmse(np.concatenate([r[f"{m}_post"].reshape(-1, 4) for r in recs]),
                           np.concatenate([r[f"{m}_truth"].reshape(-1, 4) for r in recs]))
            for m in METHODS}
