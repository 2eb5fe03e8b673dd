"""RMSE metrics, relative-to-noise scores, and report files.

Every score reads the records mapping that records.npz holds: "methods", the
names of the methods that ran, and per method m the arrays m_pred and m_post
(state means, (B, T, 4)), m_truth ((B, T, 4)) and m_meas (the measurements in
Cartesian coordinates, (B, T, 2)) of B tracklets over the T steps from
ekf.EVAL_START on.  Each is scored by its (B, T) position errors against
truth.  Aggregate RMSE pools the squared errors over all steps and
tracklets; the relative score divides by the same pooled statistic of the
raw measurements, so the measurement-as-estimator always scores exactly 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHASES = ("pred", "post")


@dataclass
class ScoreRow:
    method: str
    phase: str  # pred | post
    avg: float
    rel: float


def position_errors(records: dict, method: str, phase: str) -> np.ndarray:
    """(B, T) position errors of method's "pred", "post" or "meas" rows against truth."""
    est, truth = records[f"{method}_{phase}"], records[f"{method}_truth"]
    return np.linalg.norm(est[..., :2] - truth[..., :2], axis=-1)


def pooled_rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(errors**2)))


def noise_level(meas_errors: np.ndarray) -> float:
    """Pooled RMS of the raw measurements' position errors."""
    level = pooled_rmse(meas_errors)
    if level == 0.0:
        raise ZeroDivisionError("measurement error level is zero; relative scores undefined")
    return level


def rmse_series(errors: np.ndarray) -> np.ndarray:
    """Per-step RMSE of (B, T) errors with a 2-sigma band; returns (T, 3)
    columns rmse, lo, hi.

    The band is sqrt(mean_sq -/+ 2 se), where mean_sq is the per-step mean
    squared error and se its standard error across tracklets.
    """
    sq = errors**2
    n = sq.shape[0]
    mean_sq = sq.mean(axis=0)
    rmse = np.sqrt(mean_sq)
    if n > 1:
        se_mean_sq = sq.std(axis=0, ddof=1) / np.sqrt(n)
        lo = np.sqrt(np.maximum(mean_sq - 2.0 * se_mean_sq, 0.0))
        hi = np.sqrt(mean_sq + 2.0 * se_mean_sq)
    else:
        lo = hi = rmse
    return np.column_stack([rmse, lo, hi])


def score_table(records: dict) -> list[ScoreRow]:
    if not len(records["methods"]):
        raise ValueError("no methods to score")
    rows = []
    for method in map(str, records["methods"]):
        level = noise_level(position_errors(records, method, "meas"))
        for phase in PHASES:
            avg = pooled_rmse(position_errors(records, method, phase))
            rows.append(ScoreRow(method=method, phase=phase, avg=avg, rel=avg / level))
    return rows


def write_scores_csv(path, rows: list[ScoreRow]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "phase", "avg", "rel"])
        for row in rows:
            writer.writerow([row.method, row.phase, f"{row.avg:.17g}", f"{row.rel:.17g}"])


def make_report(out_dir, records: dict) -> dict:
    """Emit scores.csv, per-series CSVs, noise_level.csv and summary.txt from
    the records mapping: "methods", and per method m the (B, T, ·) arrays
    m_pred, m_post, m_truth and m_meas (see the module docstring).  Methods
    are reported in the order "methods" lists them.

    Returns {"scores": rows, "noise_level": float} for the caller.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("series_*.csv"):  # an earlier report's methods may not be these
        stale.unlink()
    rows = score_table(records)
    write_scores_csv(out / "scores.csv", rows)

    methods = [str(m) for m in records["methods"]]
    level = noise_level(position_errors(records, methods[0], "meas"))
    with (out / "noise_level.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["noise_level"])
        writer.writerow([f"{level:.17g}"])

    for method in methods:
        for phase in PHASES:
            series = rmse_series(position_errors(records, method, phase))
            with (out / f"series_{method}_{phase}.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "rmse", "lo", "hi"])
                for t, (rmse, lo, hi) in enumerate(series):
                    writer.writerow([t, f"{rmse:.17g}", f"{lo:.17g}", f"{hi:.17g}"])

    lines = [f"measurement noise level: {level:.4f} m"]
    for phase in PHASES:
        ranked = sorted((r for r in rows if r.phase == phase), key=lambda r: r.avg)
        best = ranked[0]
        lines.append(f"best {phase}: {best.method} (avg {best.avg:.4f} m, rel {best.rel:.4f})")
        for r in ranked:
            lines.append(f"  {phase} {r.method}: avg {r.avg:.4f} m, rel {r.rel:.4f}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return {"scores": rows, "noise_level": level}
