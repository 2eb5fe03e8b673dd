import numpy as np
import pytest

import tracklearn.autodiff as ad
from tracklearn.ekf import (
    cv_transition,
    ekf_update,
    gaussian_nll,
    init_track,
    range_bearing,
    wna_template,
)
from tracklearn.errors import NumericsError
from tracklearn.statespace import Measurement, SensorConfig, StateEstimate, measure


@pytest.fixture
def sensor():
    return SensorConfig(origin=(0.0, 0.0), sigma_r=2.0, sigma_a=0.02)


def random_spd(rng, scale=10.0):
    m = rng.standard_normal((4, 4))
    return m @ m.T + scale * np.eye(4)


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
    pred = StateEstimate(mean=[100.0, 50.0, 1.0, 0.0], cov=np.eye(4))
    z = Measurement(t=1, range=130.0, bearing=0.6)
    post, _, _ = ekf_update(pred, z, huge)
    assert np.allclose(post.mean, pred.mean, atol=1e-3)
    assert np.allclose(post.cov, pred.cov, atol=1e-3)


def test_update_fully_confident_prior(sensor):
    pred = StateEstimate(mean=[100.0, 50.0, 1.0, 0.0], cov=np.zeros((4, 4)))
    z = Measurement(t=1, range=130.0, bearing=0.6)
    post, _, _ = ekf_update(pred, z, sensor)
    assert np.allclose(post.mean, pred.mean)


def test_update_against_hand_kalman_oracle():
    """Nearly-linear geometry: on the +x axis a small update matches the
    hand-computed scalar-block Kalman answer."""
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=3.0, sigma_a=1e-9)
    p = np.diag([4.0, 1e-18, 1e-18, 1e-18])
    pred = StateEstimate(mean=[100.0, 0.0, 0.0, 0.0], cov=p)
    z = Measurement(t=0, range=106.0, bearing=0.0)
    post, innovation, s = ekf_update(pred, z, sensor)
    # range is x here: K = 4 / (4 + 9), posterior x = 100 + K * 6
    gain = 4.0 / 13.0
    assert innovation[0] == pytest.approx(6.0)
    assert s[0, 0] == pytest.approx(13.0)
    assert post.mean[0] == pytest.approx(100.0 + gain * 6.0, rel=1e-9)
    assert post.cov[0, 0] == pytest.approx((1 - gain) ** 2 * 4.0 + gain**2 * 9.0, rel=1e-9)


def test_update_wraps_bearing_innovation(sensor):
    pred = StateEstimate(mean=[-100.0, -1e-6, 0.0, 0.0], cov=np.eye(4))
    z = Measurement(t=0, range=100.0, bearing=np.pi - 1e-6)
    _, innovation, _ = ekf_update(pred, z, sensor)
    assert abs(innovation[1]) < 1e-4  # not ~2*pi


def test_update_singular_s_raises():
    sensor_ok = SensorConfig(origin=(0, 0), sigma_r=1.0, sigma_a=0.01)
    pred = StateEstimate(mean=[100.0, 0.0, 0.0, 0.0], cov=np.zeros((4, 4)))
    bad_r = np.array([[0.0, 0.0], [0.0, 0.0]])

    class ZeroNoise(SensorConfig):
        @property
        def noise_cov(self):
            return bad_r

    zero_sensor = ZeroNoise(origin=(0, 0), sigma_r=1.0, sigma_a=0.01)
    with pytest.raises(NumericsError):
        ekf_update(pred, Measurement(t=0, range=100.0, bearing=0.0), zero_sensor)


def test_joseph_form_stays_psd():
    rng = np.random.default_rng(42)
    sensor = SensorConfig(origin=(0, 0), sigma_r=1.0, sigma_a=0.005)
    for _ in range(10_000):
        cov = random_spd(rng, scale=rng.uniform(1e-6, 100.0))
        pos = rng.uniform(-500.0, 500.0, size=2)
        if np.hypot(*pos) < 1.0:
            pos[0] += 10.0
        mean = np.concatenate([pos, rng.uniform(-10, 10, size=2)])
        pred = StateEstimate(mean=mean, cov=cov)
        r, a = measure(pos, sensor)
        z = Measurement(t=0, range=max(r + rng.normal(0, 1), 0.1), bearing=a + rng.normal(0, 0.005))
        post, _, _ = ekf_update(pred, z, sensor)
        min_eig = np.linalg.eigvalsh(post.cov).min()
        assert min_eig >= -1e-9 * np.trace(post.cov)


def test_update_reduces_measured_directions():
    rng = np.random.default_rng(3)
    sensor = SensorConfig(origin=(0, 0), sigma_r=1.0, sigma_a=0.005)
    for _ in range(200):
        cov = random_spd(rng)
        mean = np.array([200.0, 100.0, 1.0, 1.0]) + rng.normal(0, 10, size=4)
        pred = StateEstimate(mean=mean, cov=cov)
        r, a = measure(mean[:2], sensor)
        z = Measurement(t=0, range=r + rng.normal(), bearing=a + rng.normal(0, 0.005))
        post, _, _ = ekf_update(pred, z, sensor)
        h = range_bearing(mean.reshape(4, 1), sensor.origin)[2]
        assert np.trace(h @ post.cov @ h.T) <= np.trace(h @ pred.cov @ h.T) + 1e-12


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
    z0 = Measurement(t=0, range=100.0, bearing=0.0)
    z1 = Measurement(t=1, range=102.0, bearing=0.0)
    est = init_track(z0, z1, sensor, dt=1.0)
    assert est.mean == pytest.approx([102.0, 0.0, 2.0, 0.0])
    assert est.t == 1
    # velocity variance: (R0 + R1)/dt^2 along range axis = 2 * sigma_r^2
    assert est.cov[2, 2] == pytest.approx(2.0)
    min_eig = np.linalg.eigvalsh(est.cov).min()
    assert min_eig >= -1e-12 * np.trace(est.cov)
