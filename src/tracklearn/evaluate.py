"""RMSE metrics, relative-to-noise scores, and report files.

Aggregate RMSE pools squared Cartesian position errors over all steps and
tracklets; the relative score divides by the same pooled statistic of the
raw measurements, so the measurement-as-estimator always scores exactly 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class RunRecord:
    """Per-tracklet filter output aligned with truth.

    Arrays cover the evaluated steps only (after track initialization):
    pred/post are (T, 4) state means, truth (T, 4), meas_cart (T, 2).
    """

    pred: np.ndarray
    post: np.ndarray
    truth: np.ndarray
    meas_cart: np.ndarray

    def __post_init__(self):
        n = len(self.truth)
        if not (len(self.pred) == len(self.post) == len(self.meas_cart) == n):
            raise ValueError("record arrays must share a length")

    def errors(self, phase: str) -> np.ndarray:
        est = {"pred": self.pred, "post": self.post}[phase]
        return np.linalg.norm(est[:, :2] - self.truth[:, :2], axis=1)

    def meas_errors(self) -> np.ndarray:
        return np.linalg.norm(self.meas_cart - self.truth[:, :2], axis=1)


@dataclass
class ScoreRow:
    method: str
    phase: str  # pred | post
    avg: float
    rel: float


def pooled_rmse(errors: list[np.ndarray]) -> float:
    stacked = np.concatenate(errors)
    return float(np.sqrt(np.mean(stacked**2)))


def noise_level(records: list[RunRecord]) -> float:
    """Pooled RMS Cartesian error of the raw measurements against truth."""
    level = pooled_rmse([r.meas_errors() for r in records])
    if level == 0.0:
        raise ZeroDivisionError("measurement error level is zero; relative scores undefined")
    return level


def aggregate_rmse(records: list[RunRecord], phase: str) -> float:
    return pooled_rmse([r.errors(phase) for r in records])


def relative_score(avg_rmse: float, records: list[RunRecord]) -> float:
    return avg_rmse / noise_level(records)


def rmse_series(records: list[RunRecord], phase: str) -> np.ndarray:
    """Per-step RMSE with a 2-sigma band; returns (T, 3) columns rmse, lo, hi.

    The band is sqrt(mean_sq -/+ 2 se), where mean_sq is the per-step mean
    squared error and se its standard error across tracklets.
    """
    if not records:
        raise ValueError("no records")
    errs = np.stack([r.errors(phase) for r in records])  # (n_tracklets, T)
    sq = errs**2
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


def score_table(per_method_records: dict[str, list[RunRecord]]) -> list[ScoreRow]:
    if not per_method_records:
        raise ValueError("no methods to score")
    rows = []
    for method, records in per_method_records.items():
        for phase in ("pred", "post"):
            avg = aggregate_rmse(records, phase)
            rows.append(ScoreRow(method=method, phase=phase, avg=avg,
                                 rel=relative_score(avg, records)))
    return rows


def write_scores_csv(path, rows: list[ScoreRow]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "phase", "avg", "rel"])
        for row in rows:
            writer.writerow([row.method, row.phase, f"{row.avg:.17g}", f"{row.rel:.17g}"])


def make_report(out_dir, per_method_records: dict[str, list[RunRecord]]) -> dict:
    """Emit scores.csv, per-series CSVs, noise_level.csv and summary.txt.

    Returns {"scores": rows, "noise_level": float} for the caller.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = score_table(per_method_records)
    write_scores_csv(out / "scores.csv", rows)

    any_records = next(iter(per_method_records.values()))
    level = noise_level(any_records)
    with (out / "noise_level.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["noise_level"])
        writer.writerow([f"{level:.17g}"])

    for method, records in per_method_records.items():
        for phase in ("pred", "post"):
            series = rmse_series(records, phase)
            with (out / f"series_{method}_{phase}.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "rmse", "lo", "hi"])
                for t, (rmse, lo, hi) in enumerate(series):
                    writer.writerow([t, f"{rmse:.17g}", f"{lo:.17g}", f"{hi:.17g}"])

    lines = [f"measurement noise level: {level:.4f} m"]
    for phase in ("pred", "post"):
        ranked = sorted((r for r in rows if r.phase == phase), key=lambda r: r.avg)
        best = ranked[0]
        lines.append(f"best {phase}: {best.method} (avg {best.avg:.4f} m, rel {best.rel:.4f})")
        for r in ranked:
            lines.append(f"  {phase} {r.method}: avg {r.avg:.4f} m, rel {r.rel:.4f}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    return {"scores": rows, "noise_level": level}
