import numpy as np
import pytest

from tracklearn.evaluate import (
    make_report,
    noise_level,
    pooled_rmse,
    position_errors,
    rmse_series,
    score_table,
)


def make_records(rng, methods=("a",), b=3, n=20, pred_err=3.0, post_err=1.5, meas_err=2.0):
    """A records mapping of b tracklets over n steps moving along x; every
    method's estimates and the measurements are truth plus Gaussian noise."""
    truth = np.zeros((b, n, 4))
    truth[..., 0] = np.arange(n) * 5.0
    meas = truth[..., :2] + rng.normal(0, meas_err, size=(b, n, 2))
    records = {"methods": np.array(sorted(methods))}
    for method in methods:
        pred = truth.copy()
        post = truth.copy()
        pred[..., :2] += rng.normal(0, pred_err, size=(b, n, 2))
        post[..., :2] += rng.normal(0, post_err, size=(b, n, 2))
        records |= {f"{method}_pred": pred, f"{method}_post": post,
                    f"{method}_truth": truth, f"{method}_meas": meas}
    return records


def exact_records(truth, post=None):
    """One method "a" whose pred equals truth, post equals post (truth by
    default) and whose measurements are truth's positions."""
    post = truth.copy() if post is None else post
    return {"methods": np.array(["a"]), "a_pred": truth.copy(), "a_post": post,
            "a_truth": truth, "a_meas": truth[..., :2].copy()}


def test_perfect_estimates_zero_series():
    records = exact_records(np.zeros((1, 10, 4)))
    series = rmse_series(position_errors(records, "a", "post"))
    assert np.allclose(series[:, 0], 0.0)
    assert pooled_rmse(position_errors(records, "a", "pred")) == 0.0


def test_single_error_vector_pythagoras():
    truth = np.zeros((1, 1, 4))
    post = truth.copy()
    post[0, 0, 0] = 3.0
    post[0, 0, 1] = 4.0
    errors = position_errors(exact_records(truth, post), "a", "post")
    assert rmse_series(errors)[0, 0] == pytest.approx(5.0)
    assert pooled_rmse(errors) == pytest.approx(5.0)


def test_series_matches_bruteforce_double_loop():
    rng = np.random.default_rng(5)
    records = make_records(rng, b=7)
    series = rmse_series(position_errors(records, "a", "pred"))
    for t in range(20):
        sq = []
        for b in range(7):
            err = records["a_pred"][b, t, :2] - records["a_truth"][b, t, :2]
            sq.append(err @ err)
        assert series[t, 0] == pytest.approx(np.sqrt(np.mean(sq)), rel=1e-12)
        assert series[t, 1] <= series[t, 0] <= series[t, 2]


def test_aggregate_is_count_weighted_quadratic_mean_of_series():
    rng = np.random.default_rng(6)
    errors = position_errors(make_records(rng, b=4, n=15), "a", "post")
    series = rmse_series(errors)[:, 0]
    assert pooled_rmse(errors) == pytest.approx(np.sqrt(np.mean(series**2)), rel=1e-12)


def test_measurement_as_estimator_scores_exactly_one():
    rng = np.random.default_rng(7)
    records = make_records(rng, b=5)
    as_state = np.concatenate([records["a_meas"], np.zeros_like(records["a_meas"])], axis=-1)
    records |= {"a_pred": as_state, "a_post": as_state}
    assert [row.rel for row in score_table(records)] == pytest.approx([1.0, 1.0], abs=1e-15)


def test_relative_score_examples():
    rng = np.random.default_rng(8)
    records = make_records(rng)
    records |= {"a_pred": records["a_truth"].copy(), "a_post": records["a_truth"].copy()}
    assert [row.rel for row in score_table(records)] == [0.0, 0.0]


def test_normalizer_shared_across_methods():
    # same truth and measurements: avg / rel must equal the same noise level for every method
    rng = np.random.default_rng(9)
    rows = score_table(make_records(rng, methods=("a", "b"), b=6))
    levels = {round(r.avg / r.rel, 9) for r in rows if r.rel > 0}
    assert len(levels) == 1


def test_zero_noise_level_raises():
    with pytest.raises(ZeroDivisionError):
        noise_level(position_errors(exact_records(np.zeros((1, 5, 4))), "a", "meas"))


def test_empty_method_set_errors():
    with pytest.raises(ValueError):
        score_table({"methods": np.array([], dtype=str)})


def test_make_report_golden(tmp_path):
    rng = np.random.default_rng(42)
    records = make_records(rng, methods=("ekf", "gp"))
    out = make_report(tmp_path, records)
    scores = (tmp_path / "scores.csv").read_text().splitlines()
    assert scores[0] == "method,phase,avg,rel"
    assert len(scores) == 1 + 4  # two methods x two phases
    assert (tmp_path / "noise_level.csv").exists()
    assert (tmp_path / "series_ekf_pred.csv").exists()
    assert (tmp_path / "series_gp_post.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert "best pred:" in summary
    assert "best post:" in summary
    assert out["noise_level"] > 0
    # golden structure of one series file
    series_lines = (tmp_path / "series_ekf_pred.csv").read_text().splitlines()
    assert series_lines[0] == "t,rmse,lo,hi"
    assert len(series_lines) == 21


def test_report_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(3)
    records = make_records(rng, methods=("ekf",))
    make_report(tmp_path / "a", records)
    make_report(tmp_path / "b", records)
    assert (tmp_path / "a" / "scores.csv").read_bytes() == (tmp_path / "b" / "scores.csv").read_bytes()
