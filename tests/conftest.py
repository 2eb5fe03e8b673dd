"""Shared fixtures: small experiment configs, a synthetic GPS-like CSV and
a CV-EKF written apart from the program's filters."""

import numpy as np
import pytest

from tracklearn.ekf import EVAL_START, cv_transition, init_track, joseph_update, wna_template


def write_config(path, overrides=None):
    """Small GCT experiment INI; overrides is a dict of (section, key) -> value."""
    base = {
        ("dataset", "n_steps"): "40",
        ("dataset", "n_train"): "6",
        ("dataset", "n_test"): "4",
        ("sensor", "sigma_r"): "1.5",
        ("sensor", "sigma_a"): "0.00523",
        ("ekf", "q"): "0.08",
        ("gp", "max_pairs"): "200",
        ("gp", "n_particles"): "100",
        ("imm", "steps"): "5",
        ("imm", "lr"): "5e-3",
        ("mkf", "hidden"): "8",
        ("mkf", "dense"): "8",
        ("mkf", "iterations"): "5",
    }
    base.update(overrides or {})
    sections = {}
    for (section, key), value in base.items():
        sections.setdefault(section, {})[key] = value
    lines = []
    for section, opts in sections.items():
        lines.append(f"[{section}]")
        for key, value in opts.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def finite_difference(f, theta: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        h = rel_step * max(1.0, abs(theta[k]))
        up = theta.copy()
        dn = theta.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (f(up) - f(dn)) / (2.0 * h)
    return grad


def cv_ekf_reference(tracklet, sensor, q):
    """The CV-EKF of intensity q on one tracklet, stepped here rather than by
    the IMM: F x and F P F' + q W predict, joseph_update updates, from the
    two-point init.  Returns (pred means, post means), one row per measurement
    from EVAL_START on, and the total NLL from each innovation's Gaussian density."""
    f, noise = cv_transition(tracklet.dt), q * wna_template(tracklet.dt)
    z = tracklet.meas
    mean, cov = init_track(z[0], z[1], sensor, tracklet.dt)
    pred_means, post_means, nll = [], [], 0.0
    for t in range(EVAL_START, len(tracklet)):
        pred = f @ mean
        x, cov, nu, s = joseph_update(pred[:, None], f @ cov @ f.T + noise, *z[t],
                                      sensor.noise_cov, sensor.origin)
        mean, nu = x[:, 0], nu[:, 0]
        pred_means.append(pred)
        post_means.append(mean)
        nll += 0.5 * (nu @ np.linalg.solve(s, nu) + np.log(np.linalg.det(s))) + np.log(2 * np.pi)
    return np.array(pred_means), np.array(post_means), nll


@pytest.fixture
def tiny_config(tmp_path):
    return write_config(tmp_path / "exp.ini")


def synthesize_gps_csv(path, n_rows=4300, dt=0.1, speed=8.0, seed=99):
    """CV legs alternating with coordinated turns, GPS-like sampling.

    The path starts at (0, 0), which is the default sensor origin: a config
    reading this CSV must move [sensor] origin_x/origin_y off the path.
    Returns the path; CSV is in the t,x,y,vx,vy interchange format.
    """
    rng = np.random.default_rng(seed)
    pos = np.array([0.0, 0.0])
    heading = rng.uniform(0, 2 * np.pi)
    rows = []
    t = 0
    while len(rows) < n_rows:
        straight = rng.integers(100, 300)
        for _ in range(straight):
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            rows.append((t * dt, pos[0], pos[1], vel[0], vel[1]))
            pos = pos + vel * dt
            t += 1
            if len(rows) >= n_rows:
                break
        if len(rows) >= n_rows:
            break
        turn_steps = rng.integers(50, 150)
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(np.deg2rad(5), np.deg2rad(15))
        for _ in range(turn_steps):
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            rows.append((t * dt, pos[0], pos[1], vel[0], vel[1]))
            next_heading = heading + omega * dt
            pos = pos + (speed / omega) * np.array(
                [np.sin(next_heading) - np.sin(heading),
                 np.cos(heading) - np.cos(next_heading)]
            )
            heading = next_heading
            t += 1
            if len(rows) >= n_rows:
                break
    with open(path, "w") as fh:
        fh.write("t,x,y,vx,vy\n")
        for row in rows[:n_rows]:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return path


@pytest.fixture
def gps_csv(tmp_path):
    return synthesize_gps_csv(tmp_path / "gps.csv")
