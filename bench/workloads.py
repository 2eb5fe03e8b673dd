"""The benchmark's workloads: the experiment INI (and CSV) each one hands the program.

Every input is a pure function of the workload and a data seed (run.py gives
round k of benchmark seed s the data seed 1000 s + k).  The data seed drives
the data: the GCT dataset through `simulate --seed`, and for `filter-eval`
also the trajectory CSV written here.  The training and particle-filter seeds
are fixed (METHOD_SEED), so the accuracy metrics reflect the program rather
than one random initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

METHOD_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # section -> {key: value}, written as the experiment INI
    rounds: int  # rounds per run at least; the accuracy metrics pool this many
    csv: dict = field(default_factory=dict)  # trajectory generator settings, csv kind only

    @property
    def kind(self) -> str:
        return self.config["dataset"].get("kind", "gct")

    def number(self, section: str, key: str) -> float:
        return float(self.config[section][key])

    def steps(self, method: str) -> int:
        """Configured optimiser steps; a shorter loss history is a failed train."""
        return int({"imm": self.config["imm"]["steps"], "mkf": self.config["mkf"]["iterations"]}[method])


_GCT = {"kind": "gct", "dt": "1.0", "speed": "10.0", "half_period": "10",
        "turn_rate_low_deg": "10.0", "turn_rate_high_deg": "15.0",
        "start_low": "2000.0", "start_high": "2100.0", "n_train": "32"}
_SENSOR = {"origin_x": "0.0", "origin_y": "0.0", "sigma_r": "1.5", "sigma_a": "0.00523"}
_MODELS = {"gp": "model/gp/gp.gpm", "imm": "model/imm/imm.txt", "mkf": "model/mkf/mkf.npz"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tape-train",
            why="IMM and MKF training at default model sizes: tape record and backward over "
                "about 200 tiny-matrix nodes per IMM step dominate",
            config={
                "dataset": _GCT | {"n_steps": "50", "n_test": "12"},
                "sensor": _SENSOR,
                "ekf": {"q": "1.0"},
                "gp": {"max_pairs": "100", "optimize_hyper": "false", "n_particles": "100"},
                "imm": {"steps": "15", "lr": "5e-3"},
                "mkf": {"iterations": "30", "lr": "5e-3", "hidden": "32", "dense": "32"},
                "models": _MODELS,
            },
            rounds=6,
        ),
        Workload(
            name="gp-dense",
            why="GP hyperparameter ascent on hundreds of pairs and a 500-particle filter: "
                "dense O(N^2 M) predictions and O(N^3) factorisations dominate",
            config={
                "dataset": _GCT | {"n_steps": "30", "n_test": "16"},
                "sensor": _SENSOR,
                "ekf": {"q": "1.0"},
                "gp": {"max_pairs": "160", "optimize_hyper": "true", "n_particles": "500"},
                "imm": {"steps": "2", "lr": "5e-3"},
                "mkf": {"iterations": "2", "lr": "5e-3"},
                "models": _MODELS,
            },
            rounds=3,
        ),
        Workload(
            name="filter-eval",
            why="forward-only evaluation of all four filters over many long tracklets cut "
                "from a GPS-like CSV: EKF steps, IMM recording, LSTM steps and CSV ingest dominate",
            config={
                "dataset": {"kind": "csv", "csv_path": "trajectory.csv", "tracklet_len": "100",
                            "train_fraction": "0.5", "dt": "1.0"},
                "sensor": _SENSOR | {"origin_x": "-4000.0"},
                "ekf": {"q": "0.3"},
                "gp": {"max_pairs": "100", "optimize_hyper": "false", "n_particles": "100"},
                "imm": {"steps": "2", "lr": "5e-3"},
                "mkf": {"iterations": "2", "lr": "5e-3"},
                "models": _MODELS,
            },
            rounds=6,
            csv={"n_rows": 2800, "dt": 1.0, "speed": 8.0, "radius": 300.0},
        ),
    )
}


def write_config(workload: Workload, path: Path) -> None:
    lines = []
    for section, options in workload.config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in options.items())
        lines.append("")
    path.write_text("\n".join(lines))


def gps_trajectory(seed: int, n_rows: int, dt: float, speed: float, radius: float) -> np.ndarray:
    """GPS-like (t, x, y, vx, vy) rows: straight legs alternating with coordinated turns.

    Speed is constant.  Each turn is steered back toward the origin of the
    path's frame once the track is more than `radius` away from it, which
    keeps the range to a distant sensor, and so the measurement noise, about
    the same from seed to seed (radius 300 m: within 1.7 km for seeds 1-39).
    """
    rng = np.random.default_rng(seed)
    pos = np.zeros(2)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    rows = []
    while len(rows) < n_rows:
        for _ in range(int(rng.integers(20, 60))):  # straight leg
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            rows.append((len(rows) * dt, *pos, *vel))
            pos = pos + vel * dt
        inward = np.arctan2(-pos[1], -pos[0])
        if np.hypot(*pos) > radius:
            sign = 1.0 if np.sin(inward - heading) > 0.0 else -1.0
        else:
            sign = rng.choice([-1.0, 1.0])
        omega = sign * np.deg2rad(rng.uniform(3.0, 12.0))
        for _ in range(int(rng.integers(10, 30))):  # coordinated turn on the exact arc
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            rows.append((len(rows) * dt, *pos, *vel))
            nxt = heading + omega * dt
            pos = pos + (speed / omega) * np.array(
                [np.sin(nxt) - np.sin(heading), np.cos(heading) - np.cos(nxt)])
            heading = nxt
    return np.array(rows[:n_rows])


def write_inputs(workload: Workload, directory: Path, seed: int) -> None:
    """Write the experiment INI (and the trajectory CSV) into `directory`."""
    write_config(workload, directory / "experiment.ini")
    if workload.kind == "csv":
        rows = gps_trajectory(seed, **workload.csv)
        with (directory / workload.config["dataset"]["csv_path"]).open("w") as fh:
            fh.write("t,x,y,vx,vy\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
