import numpy as np
import pytest

import tracklearn.autodiff as ad
from tracklearn.ekf import (
    EVAL_START,
    check_estimate,
    cv_transition,
    filter_tracklet,
    gaussian_nll,
    init_track,
    joseph_update,
    range_bearing,
    wna_template,
)
from tracklearn.errors import NumericsError
from tracklearn.simulate import GctConfig, make_dataset
from tracklearn.statespace import SensorConfig, measure


@pytest.fixture
def sensor():
    return SensorConfig(origin=(0.0, 0.0), sigma_r=2.0, sigma_a=0.02)


def random_spd(rng, scale=10.0):
    m = rng.standard_normal((4, 4))
    return m @ m.T + scale * np.eye(4)


def update(mean, cov, z, sensor):
    """joseph_update of one (mean, cov) by the (range, bearing) row z on arrays:
    (posterior mean, posterior cov, innovation, innovation covariance)."""
    x, p, nu, s = joseph_update(np.reshape(mean, (4, 1)), cov, *z, sensor.noise_cov,
                                sensor.origin)
    return x[:, 0], p, nu[:, 0], s


def test_predict_deterministic_drift():
    for dt in (1.0, 0.5):
        f = cv_transition(dt)
        assert np.array_equal(f @ np.array([0.0, 0.0, 1.0, 2.0]), [dt, 2.0 * dt, 1.0, 2.0])
        assert np.array_equal(f @ np.eye(4) @ f.T, f @ f.T)


def test_predict_zero_noise_zero_cov():
    f = cv_transition(0.5)
    assert np.array_equal(f @ np.zeros((4, 4)) @ f.T + 0.0 * wna_template(0.5), np.zeros((4, 4)))


def test_predict_noise_inflates_trace():
    rng = np.random.default_rng(0)
    for dt in (0.1, 1.0, 3.0):
        noise = 2.0 * wna_template(dt)
        assert np.array_equal(noise, noise.T)
        assert np.linalg.eigvalsh(noise).min() >= -1e-12 * np.trace(noise)
        f = cv_transition(dt)
        for _ in range(20):
            drift_only = f @ random_spd(rng) @ f.T
            assert np.trace(drift_only + noise) >= np.trace(drift_only)


def test_update_uninformative_measurement(sensor):
    huge = SensorConfig(origin=(0, 0), sigma_r=1e6, sigma_a=1e6)
    mean = np.array([100.0, 50.0, 1.0, 0.0])
    z = np.array([130.0, 0.6])
    post, post_cov, _, _ = update(mean, np.eye(4), z, huge)
    assert np.allclose(post, mean, atol=1e-3)
    assert np.allclose(post_cov, np.eye(4), atol=1e-3)


def test_update_fully_confident_prior(sensor):
    mean = np.array([100.0, 50.0, 1.0, 0.0])
    z = np.array([130.0, 0.6])
    post, _, _, _ = update(mean, np.zeros((4, 4)), z, sensor)
    assert np.allclose(post, mean)


def test_update_against_hand_kalman_oracle():
    """Nearly-linear geometry: on the +x axis a small update matches the
    hand-computed scalar-block Kalman answer."""
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=3.0, sigma_a=1e-9)
    p = np.diag([4.0, 1e-18, 1e-18, 1e-18])
    z = np.array([106.0, 0.0])
    post, post_cov, innovation, s = update([100.0, 0.0, 0.0, 0.0], p, z, sensor)
    # range is x here: K = 4 / (4 + 9), posterior x = 100 + K * 6
    gain = 4.0 / 13.0
    assert innovation[0] == pytest.approx(6.0)
    assert s[0, 0] == pytest.approx(13.0)
    assert post[0] == pytest.approx(100.0 + gain * 6.0, rel=1e-9)
    assert post_cov[0, 0] == pytest.approx((1 - gain) ** 2 * 4.0 + gain**2 * 9.0, rel=1e-9)


def test_update_wraps_bearing_innovation(sensor):
    z = np.array([100.0, np.pi - 1e-6])
    _, _, innovation, _ = update([-100.0, -1e-6, 0.0, 0.0], np.eye(4), z, sensor)
    assert abs(innovation[1]) < 1e-4  # not ~2*pi


def test_update_singular_s_raises():
    bad_r = np.array([[0.0, 0.0], [0.0, 0.0]])

    class ZeroNoise(SensorConfig):
        @property
        def noise_cov(self):
            return bad_r

    zero_sensor = ZeroNoise(origin=(0, 0), sigma_r=1.0, sigma_a=0.01)
    with pytest.raises(NumericsError):
        update([100.0, 0.0, 0.0, 0.0], np.zeros((4, 4)), np.array([100.0, 0.0]),
               zero_sensor)


def test_joseph_form_stays_psd():
    rng = np.random.default_rng(42)
    sensor = SensorConfig(origin=(0, 0), sigma_r=1.0, sigma_a=0.005)
    for _ in range(10_000):
        cov = random_spd(rng, scale=rng.uniform(1e-6, 100.0))
        pos = rng.uniform(-500.0, 500.0, size=2)
        if np.hypot(*pos) < 1.0:
            pos[0] += 10.0
        mean = np.concatenate([pos, rng.uniform(-10, 10, size=2)])
        r, a = measure(pos, sensor)
        z = np.array([max(r + rng.normal(0, 1), 0.1), a + rng.normal(0, 0.005)])
        _, post_cov, _, _ = update(mean, cov, z, sensor)
        min_eig = np.linalg.eigvalsh(post_cov).min()
        assert min_eig >= -1e-9 * np.trace(post_cov)


def test_update_reduces_measured_directions():
    rng = np.random.default_rng(3)
    sensor = SensorConfig(origin=(0, 0), sigma_r=1.0, sigma_a=0.005)
    for _ in range(200):
        cov = random_spd(rng)
        mean = np.array([200.0, 100.0, 1.0, 1.0]) + rng.normal(0, 10, size=4)
        r, a = measure(mean[:2], sensor)
        z = np.array([r + rng.normal(), a + rng.normal(0, 0.005)])
        _, post_cov, _, _ = update(mean, cov, z, sensor)
        h = range_bearing(mean.reshape(4, 1), sensor.origin)[-1]
        assert np.trace(h @ post_cov @ h.T) <= np.trace(h @ cov @ h.T) + 1e-12


def nll_term(innovation, s):
    return ad.scalar(gaussian_nll(np.reshape(innovation, (2, 1)), s))


def test_nll_examples():
    assert nll_term(np.zeros(2), np.eye(2)) == pytest.approx(np.log(2 * np.pi))
    assert nll_term(np.array([1.0, 0.0]), np.eye(2)) == pytest.approx(0.5 + np.log(2 * np.pi))


def test_nll_matches_density_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = rng.standard_normal((2, 2))
        s = m @ m.T + 0.5 * np.eye(2)
        nu = rng.standard_normal(2)
        density = (
            1.0
            / (2 * np.pi * np.sqrt(np.linalg.det(s)))
            * np.exp(-0.5 * nu @ np.linalg.solve(s, nu))
        )
        assert nll_term(nu, s) == pytest.approx(-np.log(density), rel=1e-10)


def test_init_track_two_point():
    sensor = SensorConfig(origin=(0, 0), sigma_r=1.0, sigma_a=0.01)
    z0 = np.array([100.0, 0.0])
    z1 = np.array([102.0, 0.0])
    mean, cov = init_track(z0, z1, sensor, dt=1.0)
    assert mean == pytest.approx([102.0, 0.0, 2.0, 0.0])
    # velocity variance: (R0 + R1)/dt^2 along range axis = 2 * sigma_r^2
    assert cov[2, 2] == pytest.approx(2.0)
    min_eig = np.linalg.eigvalsh(cov).min()
    assert min_eig >= -1e-12 * np.trace(cov)


def asymmetric():
    cov = np.eye(4)
    cov[0, 1] = 0.5
    return cov


def test_check_estimate_validation():
    cases = [(np.zeros(4), np.zeros(4), np.diag([1.0, 1.0, 1.0, -1.0]), "not PSD"),
             (np.zeros(4), np.zeros(4), asymmetric(), "not symmetric")]
    for value in (np.inf, -np.inf, np.nan):
        cases.append((np.zeros(4), np.zeros(4), np.diag([value, 1.0, 1.0, 1.0]), "not finite"))
        cases.append((np.zeros(4), np.array([0.0, value, 0.0, 0.0]), np.eye(4), "not finite"))
        cases.append((np.array([0.0, 0.0, value, 0.0]), np.zeros(4), np.eye(4), "not finite"))
    sound_means, sound_covs = np.ones((4, 4)), np.stack([np.eye(4)] * 4)
    check_estimate(sound_means, sound_covs, sound_means)
    for pred, mean, cov, reason in cases:
        with pytest.raises(ValueError, match=reason):
            check_estimate(mean, cov, pred)
        # the same belief as row 2 of a batch whose other rows pass
        preds, means, covs = sound_means.copy(), sound_means.copy(), sound_covs.copy()
        preds[2], means[2], covs[2] = pred, mean, cov
        with pytest.raises(ValueError, match=f"^row 2: .*{reason}"):
            check_estimate(means, covs, preds)


@pytest.mark.parametrize("pred, cov, reason", [
    ([0.0, np.nan, 0.0, 0.0], np.eye(4), "not finite"),
    (np.zeros(4), asymmetric(), "not symmetric"),
    (np.zeros(4), np.diag([1.0, 1.0, 1.0, -1.0]), "not PSD"),
], ids=["pred_not_finite", "not_symmetric", "not_psd"])
def test_filter_tracklet_checks_every_step(pred, cov, reason):
    """Whatever the filter, an unsound row fails with its step index and batch
    row: here a stub step that spoils batch row 1 at step 4."""
    tracklets = make_dataset(3, GctConfig(n_steps=8), SensorConfig(), seed=1).tracklets

    def step(state, z):
        t, (means, covs) = state
        rows = means.copy(), means.copy(), covs.copy()
        if t == 4:
            rows[0][1], rows[2][1] = pred, cov
        return (t + 1, state[1]), *rows

    with pytest.raises(NumericsError, match=f"^step 4: row 1: .*{reason}"):
        filter_tracklet(tracklets, SensorConfig(), lambda init, dt: (EVAL_START, init), step)


@pytest.mark.parametrize("then_raise", [False, True], ids=["then_clean", "then_raises"])
@pytest.mark.parametrize("batch", [False, True], ids=["one_tracklet", "batch"])
def test_a_refused_row_is_the_error_whatever_follows_it(batch, then_raise):
    """The rows are checked once, after the loop, yet a non-PSD posterior at
    step 4 (of batch row 1) is reported as a check after each step would
    report it, word for word: whether the later steps run clean or step 6
    raises, and before step 6's own error."""
    tracklets = make_dataset(3, GctConfig(n_steps=9), SensorConfig(), seed=1).tracklets

    def step(state, z):
        t, (means, covs) = state
        if then_raise and t == 6:
            raise NumericsError("matrix is not positive definite", np.array([False, True, False]))
        if t == 4:
            covs = covs.copy()
            covs[1 if batch else ...] = np.diag([1.0, 1.0, 1.0, -1.0])
        return (t + 1, state[1]), means, means, covs

    with pytest.raises(NumericsError) as caught:
        filter_tracklet(tracklets if batch else tracklets[0], SensorConfig(),
                        lambda init, dt: (EVAL_START, init), step)
    row = "row 1: " if batch else ""
    assert str(caught.value) == f"step 4: {row}covariance is not PSD (min eigenvalue -1)"
