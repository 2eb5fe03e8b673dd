"""Coordinated-turn trajectory simulation, dataset assembly, and CSV ingest.

The ground-truth model alternates left and right turns at a constant rate
drawn once per trajectory, with zero tangential acceleration, so speed is
conserved exactly.  Positions follow the exact circular arc between samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ekf import EVAL_START
from .errors import CsvFormatError, EmptyDatasetError, RowError
from .statespace import SensorConfig, Tracklet, measure

TRUTH_HEADER = ["t", "x", "y", "vx", "vy"]
MEAS_HEADER = ["t", "range", "bearing"]


@dataclass(frozen=True)
class GctConfig:
    """Alternating coordinated-turn generator settings.

    turn_rate_bounds are in deg/s; a rate is drawn uniformly once per
    trajectory and applied as +rate for half_period steps, then -rate, and
    so on, starting with a left (counterclockwise) turn.
    """

    n_steps: int = 100
    dt: float = 1.0
    half_period: int = 10
    turn_rate_bounds: tuple = (10.0, 15.0)
    start_box: tuple = ((2000.0, 2100.0), (2000.0, 2100.0))
    speed: float = 10.0

    def __post_init__(self):
        if self.n_steps <= 0:
            raise ValueError("n_steps must be positive")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.half_period <= 0:
            raise ValueError("half_period must be positive")
        low, high = self.turn_rate_bounds
        if not -np.inf < low < high < np.inf:
            raise ValueError(f"turn_rate_bounds must be an increasing finite pair, "
                             f"got {low}, {high}")
        if not 0.0 < self.speed < np.inf:
            raise ValueError(f"speed must be positive and finite, got {self.speed}")
        if not np.isfinite(self.start_box).all():
            raise ValueError(f"start_box must be finite, got {self.start_box}")


@dataclass
class Dataset:
    """A bag of tracklets sharing one sensor and sampling interval."""

    tracklets: list = field(default_factory=list)
    sensor: SensorConfig = field(default_factory=SensorConfig)

    def __len__(self) -> int:
        return len(self.tracklets)

    @property
    def dt(self) -> float:
        return self.tracklets[0].dt if self.tracklets else float("nan")


def tracklet_rngs(seed: int, n: int):
    """One Generator per tracklet: tracklet i draws from SeedSequence(seed).spawn(n)[i]."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def generate_gct(cfg: GctConfig, rng: np.random.Generator) -> Tracklet:
    """Simulate one ground-truth trajectory; measurements left empty (NaN).

    Draw order (fixed for reproducibility): start x, start y, initial
    heading, turn rate.
    """
    x0 = rng.uniform(*cfg.start_box[0])
    y0 = rng.uniform(*cfg.start_box[1])
    heading0 = rng.uniform(0.0, 2.0 * np.pi)
    rate = np.deg2rad(rng.uniform(*cfg.turn_rate_bounds))

    truth = np.empty((cfg.n_steps, 4))
    heading = heading0
    pos = np.array([x0, y0])
    for k in range(cfg.n_steps):
        truth[k, :2] = pos
        truth[k, 2] = cfg.speed * np.cos(heading)
        truth[k, 3] = cfg.speed * np.sin(heading)
        omega = rate if (k // cfg.half_period) % 2 == 0 else -rate
        next_heading = heading + omega * cfg.dt
        # exact arc: integral of speed * (cos, sin) over one step
        radius = cfg.speed / omega
        pos = pos + radius * np.array(
            [np.sin(next_heading) - np.sin(heading), np.cos(heading) - np.cos(next_heading)]
        )
        heading = next_heading
    meas = np.full((cfg.n_steps, 2), np.nan)
    return Tracklet(dt=cfg.dt, truth=truth, meas=meas)


def simulate_measurements(truth: Tracklet, sensor: SensorConfig, rng: np.random.Generator) -> Tracklet:
    """Attach noisy range-bearing returns to a truth trajectory: each step
    draws its range noise, then its bearing noise (Tracklet wraps the bearings)."""
    meas = np.array([measure(state[:2], sensor) for state in truth.truth]).reshape(-1, 2)
    meas += rng.standard_normal(meas.shape) * [sensor.sigma_r, sensor.sigma_a]
    meas[:, 0] = np.abs(meas[:, 0])  # range stays non-negative
    return Tracklet(dt=truth.dt, truth=truth.truth.copy(), meas=meas)


def make_dataset(n_tracklets: int, cfg: GctConfig, sensor: SensorConfig, seed: int) -> Dataset:
    """n independent GCT tracklets with measurements; pure function of (cfg, seed).

    Each tracklet draws from its own RNG stream spawned from (seed, index),
    so any subset can be regenerated independently.
    """
    tracklets = []
    for rng in tracklet_rngs(seed, n_tracklets):
        truth = generate_gct(cfg, rng)
        tracklets.append(simulate_measurements(truth, sensor, rng))
    return Dataset(tracklets=tracklets, sensor=sensor)


def _floats(fields, name: str, lineno: int) -> list[float]:
    """The fields of one CSV line as finite floats, or CsvFormatError naming the line."""
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise CsvFormatError(f"{name} line {lineno}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise CsvFormatError(f"{name} line {lineno}: non-finite value")
    return values


def _read_csv(path, header: list[str]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(t, the other columns, the line number of each row) of a CSV whose first
    line is header.  Blank lines are skipped, and CsvFormatError names the file
    and line of a fault."""
    path = Path(path)
    times, rows, lines = [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or [h.strip() for h in found] != header:
            raise CsvFormatError(f"{path.name} line 1: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(f"{path.name} line {lineno}: expected {len(header)} fields, "
                                     f"got {len(row)}")
            values = _floats(row, path.name, lineno)
            times.append(values[0])
            rows.append(values[1:])
            lines.append(lineno)
    return np.asarray(times), np.asarray(rows), lines


def ingest_csv(traj_path, sensor: SensorConfig, tracklet_len: int, rng_seed: int,
               dt: float) -> Dataset:
    """Split an external trajectory CSV (t,x,y,vx,vy) into tracklets and
    synthesize measurements.

    Consecutive non-overlapping windows of tracklet_len rows; the remainder
    is discarded.  Every time step of the CSV must equal dt to within
    1e-6 dt, or CsvFormatError names the first data row (counted from 1)
    that breaks it.
    """
    times, states, _ = _read_csv(traj_path, TRUTH_HEADER)
    n = len(states)
    if n < tracklet_len:
        raise EmptyDatasetError(
            f"{Path(traj_path).name}: {n} rows < tracklet length {tracklet_len}"
        )
    steps = np.diff(times)
    off = np.flatnonzero(np.abs(steps - dt) > 1e-6 * dt)
    if off.size:
        k = int(off[0])
        raise CsvFormatError(f"{Path(traj_path).name} data row {k + 2}: time step "
                             f"{steps[k]:g} s differs from dt = {dt:g} s")
    n_tracklets = n // tracklet_len
    tracklets = []
    rngs = tracklet_rngs(rng_seed, n_tracklets)
    for i in range(n_tracklets):
        chunk = states[i * tracklet_len : (i + 1) * tracklet_len]
        truth = Tracklet(dt=dt, truth=chunk, meas=np.full((tracklet_len, 2), np.nan))
        tracklets.append(simulate_measurements(truth, sensor, rngs[i]))
    return Dataset(tracklets=tracklets, sensor=sensor)


def write_tracklet(directory, index: int, tracklet: Tracklet) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, header, rows in (("truth", TRUTH_HEADER, tracklet.truth),
                               ("meas", MEAS_HEADER, tracklet.meas)):
        with (directory / f"{kind}_{index:04d}.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t, row in enumerate(rows):
                writer.writerow([t] + [f"{v:.17g}" for v in row])


def read_tracklet(directory, index: int, dt: float) -> Tracklet:
    """Tracklet index of a saved split.  A missing file, a measurement file
    whose row count differs from its truth file's, or a measurement row that
    Tracklet rejects is a CsvFormatError; the last names its line."""
    paths = [Path(directory) / f"{kind}_{index:04d}.csv" for kind in ("truth", "meas")]
    if missing := [p.name for p in paths if not p.is_file()]:
        raise CsvFormatError(f"{missing[0]} is missing")
    _, truth, _ = _read_csv(paths[0], TRUTH_HEADER)
    _, meas, lines = _read_csv(paths[1], MEAS_HEADER)
    if len(meas) != len(truth):
        raise CsvFormatError(f"{paths[1].name} has {len(meas)} rows, {paths[0].name} {len(truth)}")
    try:
        return Tracklet(dt=dt, truth=truth, meas=meas)
    except RowError as exc:
        raise CsvFormatError(f"{paths[1].name} line {lines[exc.row]}: {exc.cause}") from exc


def save_dataset(directory, dataset: Dataset) -> None:
    for i, trk in enumerate(dataset.tracklets):
        write_tracklet(directory, i, trk)


def load_dataset(directory, sensor: SensorConfig, dt: float) -> Dataset:
    """The split that save_dataset wrote to directory.  The filters run a
    split as one lockstep batch, so a tracklet whose length differs from
    tracklet 0's is a CsvFormatError naming its truth file, and so is a split
    too short to filter: every filter starts its track on rows 0 and 1 and
    steps from EVAL_START on."""
    directory = Path(directory)
    n = len(list(directory.glob("truth_*.csv")))
    if not n:
        raise EmptyDatasetError(f"no truth_*.csv files under {directory}")
    tracklets = [read_tracklet(directory, i, dt) for i in range(n)]
    for i, trk in enumerate(tracklets):
        if len(trk) != len(tracklets[0]):
            raise CsvFormatError(f"truth_{i:04d}.csv has {len(trk)} rows, truth_0000.csv "
                                 f"{len(tracklets[0])}: a split's tracklets share one length")
    if len(tracklets[0]) <= EVAL_START:
        raise CsvFormatError(f"truth_0000.csv has {len(tracklets[0])} rows: a filter needs at "
                             f"least {EVAL_START + 1}")
    return Dataset(tracklets=tracklets, sensor=sensor)
