import numpy as np
import pytest

from tracklearn.ekf import range_bearing
from tracklearn.errors import GeometryError, NumericsError, RowError
from tracklearn.statespace import (
    SensorConfig,
    Tracklet,
    measure,
    measurement_noise_cartesian,
    polar_to_cartesian,
    wrap_angle,
)


@pytest.fixture
def origin_sensor():
    return SensorConfig(origin=(0.0, 0.0), sigma_r=1.0, sigma_a=0.01)


def test_measure_pythagorean_triple(origin_sensor):
    r, a = measure((3.0, 4.0), origin_sensor)
    assert r == pytest.approx(5.0, abs=1e-12)
    assert a == pytest.approx(0.9272952180016122, abs=1e-9)


def test_measure_on_axis(origin_sensor):
    assert measure((10.0, 0.0), origin_sensor) == pytest.approx((10.0, 0.0))
    r, a = measure((0.0, 5.0), origin_sensor)
    assert (r, a) == pytest.approx((5.0, np.pi / 2))


def test_measure_relative_to_origin():
    sensor = SensorConfig(origin=(1.0, 1.0), sigma_r=1.0, sigma_a=0.01)
    r, a = measure((4.0, 5.0), sensor)
    assert (r, a) == pytest.approx((5.0, 0.9272952180016122))


def test_measure_degenerate(origin_sensor):
    with pytest.raises(GeometryError):
        measure((0.0, 0.0), origin_sensor)
    # the filters' measurement model raises the error the IMM and training handle
    with pytest.raises(NumericsError):
        measure_jacobian([0.0, 0.0, 1.0, 1.0], origin_sensor)


def measure_jacobian(mean, sensor):
    """The Jacobian half of the filters' range-bearing model, on arrays."""
    return range_bearing(np.reshape(mean, (4, 1)).astype(float), sensor.origin)[-1]


def test_jacobian_on_axis_closed_form(origin_sensor):
    h = measure_jacobian([10.0, 0.0, 3.0, -2.0], origin_sensor)
    assert h[0] == pytest.approx([1.0, 0.0, 0.0, 0.0])
    assert h[1] == pytest.approx([0.0, 0.1, 0.0, 0.0])
    h = measure_jacobian([0.0, 5.0, 0.0, 0.0], origin_sensor)
    assert h[0, 1] == pytest.approx(1.0)
    assert h[1, 0] == pytest.approx(-0.2)


def _fd_jacobian(mean, sensor):
    jac = np.zeros((2, 4))
    for k in range(4):
        h = 1e-5 * max(1.0, abs(mean[k]))
        up, dn = mean.copy(), mean.copy()
        up[k] += h
        dn[k] -= h
        ru, au = measure(up[:2], sensor)
        rd, ad = measure(dn[:2], sensor)
        jac[0, k] = (ru - rd) / (2 * h)
        jac[1, k] = wrap_angle(au - ad) / (2 * h)
    return jac


def test_jacobian_matches_finite_differences(origin_sensor):
    rng = np.random.default_rng(7)
    for _ in range(100):
        mean = rng.uniform(-50.0, 50.0, size=4)
        if np.hypot(mean[0], mean[1]) < 1.0:
            mean[0] += 5.0
        analytic = measure_jacobian(mean, origin_sensor)
        fd = _fd_jacobian(mean, origin_sensor)
        assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-9)


def test_polar_to_cartesian_examples(origin_sensor):
    assert polar_to_cartesian(5.0, 0.9272952180016122, origin_sensor) == pytest.approx(
        [3.0, 4.0], abs=1e-9)
    assert polar_to_cartesian(10.0, 0.0, origin_sensor) == pytest.approx([10.0, 0.0])
    # any shape of ranges and bearings gains a trailing (x, y) axis
    rows = np.array([[[5.0, 0.9272952180016122], [10.0, 0.0]]] * 3)
    shifted = SensorConfig(origin=(1.0, -2.0), sigma_r=1.0, sigma_a=0.01)
    xy = polar_to_cartesian(rows[..., 0], rows[..., 1], shifted)
    assert xy.shape == (3, 2, 2)
    assert np.allclose(xy[2], [[4.0, 2.0], [11.0, -2.0]], rtol=0, atol=1e-9)


def test_polar_roundtrip_property(origin_sensor):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        pos = rng.uniform(-1e4, 1e4, size=2)
        if np.hypot(*pos) < 1e-3:
            continue
        r, a = measure(pos, origin_sensor)
        back = polar_to_cartesian(r, a, origin_sensor)
        worst = max(worst, float(np.max(np.abs(back - pos))))
    assert worst < 1e-9


def test_measure_after_polar_is_identity(origin_sensor):
    rng = np.random.default_rng(3)
    for _ in range(200):
        r0 = rng.uniform(1e-3, 1e4)
        a0 = rng.uniform(-np.pi, np.pi)
        pos = polar_to_cartesian(r0, a0, origin_sensor)
        r1, a1 = measure(pos, origin_sensor)
        assert abs(r1 - r0) < 1e-9 * max(1.0, r0)
        assert abs(wrap_angle(a1 - a0)) < 1e-12


def test_bearing_wrap_near_negative_x_axis(origin_sensor):
    for eps in (1e-3, 1e-6, 1e-9):
        _, a = measure((-1.0, -eps), origin_sensor)
        assert -np.pi < a <= np.pi
        assert a < 0  # approaches -pi from above
        assert abs(a + np.pi) < 2 * eps
    _, a_on_axis = measure((-1.0, 0.0), origin_sensor)
    assert a_on_axis == pytest.approx(np.pi)


def test_wrap_angle_range():
    thetas = np.linspace(-20.0, 20.0, 4001)
    wrapped = wrap_angle(thetas)
    assert np.all(wrapped > -np.pi)
    assert np.all(wrapped <= np.pi)
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


def test_tracklet_rejects_a_negative_range_and_wraps_bearings():
    truth = np.zeros((3, 4))
    meas = np.array([[1.0, 0.0], [1.0, 3 * np.pi], [2.0, -np.pi]])
    with pytest.raises(RowError, match=r"^row 2: negative range -1$"):
        Tracklet(dt=1.0, truth=truth, meas=meas * [[1.0], [1.0], [-0.5]])
    trk = Tracklet(dt=1.0, truth=truth, meas=meas)
    assert trk.meas[1, 1] == pytest.approx(np.pi) and trk.meas[2, 1] == pytest.approx(np.pi)
    assert np.all(trk.meas[:, 1] > -np.pi) and np.all(trk.meas[:, 1] <= np.pi)
    assert meas[1, 1] == 3 * np.pi  # the caller's rows are left as they were
    Tracklet(dt=1.0, truth=truth, meas=np.full((3, 2), np.nan))  # truth before measurements


def test_sensor_validation():
    for kwargs in ({"sigma_r": 0.0}, {"sigma_a": -0.1}, {"sigma_r": np.nan}, {"sigma_a": np.inf},
                   {"origin": (0.0, np.nan)}):
        with pytest.raises(ValueError):
            SensorConfig(**kwargs)


def test_measurement_noise_cartesian_at_zero_bearing():
    sensor = SensorConfig(origin=(0, 0), sigma_r=2.0, sigma_a=0.01)
    cov = measurement_noise_cartesian(100.0, 0.0, sensor)
    assert cov[0, 0] == pytest.approx(4.0)
    assert cov[1, 1] == pytest.approx(1.0)  # (100 * 0.01)^2
    assert abs(cov[0, 1]) < 1e-12
