import numpy as np
import pytest

from tracklearn.errors import CsvFormatError, EmptyDatasetError
from tracklearn.simulate import (
    Dataset,
    GctConfig,
    generate_gct,
    ingest_csv,
    load_dataset,
    make_dataset,
    read_tracklet,
    save_dataset,
    simulate_measurements,
    write_tracklet,
)
from tracklearn.statespace import SensorConfig, Tracklet, measure


def test_start_box_and_speed():
    cfg = GctConfig(n_steps=50, start_box=((2000.0, 2100.0), (2000.0, 2100.0)), speed=10.0)
    for seed in range(10):
        trk = generate_gct(cfg, np.random.default_rng(seed))
        assert 2000.0 <= trk.truth[0, 0] <= 2100.0
        assert 2000.0 <= trk.truth[0, 1] <= 2100.0
        assert np.hypot(trk.truth[0, 2], trk.truth[0, 3]) == pytest.approx(10.0)


def test_single_direction_circle_closes():
    # 10 deg/s, 36 one-second steps: one full circle back to the start
    cfg = GctConfig(
        n_steps=37,
        dt=1.0,
        half_period=37,  # never switches within the run
        turn_rate_bounds=(10.0, 10.0 + 1e-12),
        start_box=((0.0, 1e-12), (0.0, 1e-12)),
        speed=5.0,
    )
    trk = generate_gct(cfg, np.random.default_rng(1))
    assert np.linalg.norm(trk.truth[36, :2] - trk.truth[0, :2]) < 1e-6


def test_full_oscillation_restores_heading():
    cfg = GctConfig(n_steps=21, half_period=10)
    trk = generate_gct(cfg, np.random.default_rng(2))
    h0 = np.arctan2(trk.truth[0, 3], trk.truth[0, 2])
    h20 = np.arctan2(trk.truth[20, 3], trk.truth[20, 2])
    assert abs(h20 - h0) < 1e-9


def test_speed_is_constant_along_trajectory():
    cfg = GctConfig(n_steps=200)
    trk = generate_gct(cfg, np.random.default_rng(3))
    speeds = np.hypot(trk.truth[:, 2], trk.truth[:, 3])
    assert np.max(np.abs(speeds - cfg.speed)) < 1e-9


def test_heading_increments_exact():
    cfg = GctConfig(n_steps=40, half_period=10, dt=1.0)
    rng = np.random.default_rng(4)
    trk = generate_gct(cfg, rng)
    headings = np.unwrap(np.arctan2(trk.truth[:, 3], trk.truth[:, 2]))
    increments = np.diff(headings)
    rate = abs(increments[0])
    # first leg turns left, second right
    assert np.allclose(increments[:9], rate, atol=1e-12)
    assert np.allclose(increments[10:19], -rate, atol=1e-12)
    assert np.deg2rad(10.0) <= rate <= np.deg2rad(15.0)


def test_zero_noise_measurements_exact():
    cfg = GctConfig(n_steps=20)
    truth = generate_gct(cfg, np.random.default_rng(5))
    tiny = SensorConfig(origin=(0, 0), sigma_r=1e-300, sigma_a=1e-300)
    trk = simulate_measurements(truth, tiny, np.random.default_rng(0))
    for k in range(len(trk)):
        r, a = measure(trk.truth[k, :2], tiny)
        assert trk.meas[k, 0] == pytest.approx(r, abs=1e-9)
        assert trk.meas[k, 1] == pytest.approx(a, abs=1e-9)


def test_noise_injection_monte_carlo():
    # 1e5 samples at a fixed state: sample std of range error within 2% of sigma_r
    sensor = SensorConfig(origin=(0, 0), sigma_r=25.0, sigma_a=0.01)
    pos = np.array([2000.0, 2000.0])
    truth = Tracklet(
        dt=1.0,
        truth=np.tile(np.concatenate([pos, [1.0, 0.0]]), (100_000, 1)),
        meas=np.full((100_000, 2), np.nan),
    )
    trk = simulate_measurements(truth, sensor, np.random.default_rng(10))
    r_true, _ = measure(pos, sensor)
    r_std = np.std(trk.meas[:, 0] - r_true)
    assert 24.5 <= r_std <= 25.5
    a_std = np.std(trk.meas[:, 1] - measure(pos, sensor)[1])
    assert 0.0098 <= a_std <= 0.0102


def test_measurement_noise_floor_at_gct_range():
    """With the simulated-experiment sensor, the Cartesian measurement error
    at ~2800 m of range lands on the 14-16 m noise floor that the relative
    scores divide by."""
    from tracklearn.statespace import polar_to_cartesian

    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=1.5, sigma_a=0.00523)
    pos = np.array([1980.0, 1980.0])  # range 2800 m
    n = 40_000
    truth = Tracklet(
        dt=1.0,
        truth=np.tile(np.concatenate([pos, [1.0, 0.0]]), (n, 1)),
        meas=np.full((n, 2), np.nan),
    )
    trk = simulate_measurements(truth, sensor, np.random.default_rng(11))
    cart = polar_to_cartesian(*trk.meas.T, sensor)
    rms = np.sqrt(np.mean(np.sum((cart - pos) ** 2, axis=1)))
    assert 14.0 <= rms <= 16.0


def test_make_dataset_deterministic():
    cfg = GctConfig(n_steps=30)
    sensor = SensorConfig(origin=(0, 0), sigma_r=5.0, sigma_a=0.005)
    d1 = make_dataset(4, cfg, sensor, seed=123)
    d2 = make_dataset(4, cfg, sensor, seed=123)
    for a, b in zip(d1.tracklets, d2.tracklets):
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.meas, b.meas)
    d3 = make_dataset(4, cfg, sensor, seed=124)
    assert not np.array_equal(d1.tracklets[0].truth, d3.tracklets[0].truth)


def test_make_dataset_tracklets_independent_of_count():
    # per-tracklet RNG streams: the first tracklets agree regardless of n
    cfg = GctConfig(n_steps=10)
    sensor = SensorConfig(origin=(0, 0), sigma_r=5.0, sigma_a=0.005)
    d_small = make_dataset(2, cfg, sensor, seed=7)
    d_big = make_dataset(5, cfg, sensor, seed=7)
    for a, b in zip(d_small.tracklets, d_big.tracklets[:2]):
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.meas, b.meas)


def test_ingest_csv_splits_and_remainder(tmp_path):
    rows = 430
    t = np.arange(rows)
    states = np.column_stack([10.0 * t, np.zeros(rows), np.full(rows, 10.0), np.zeros(rows)])
    path = tmp_path / "traj.csv"
    with path.open("w") as fh:
        fh.write("t,x,y,vx,vy\n")
        for k in range(rows):
            fh.write(f"{t[k]},{states[k,0]},{states[k,1]},{states[k,2]},{states[k,3]}\n")
    sensor = SensorConfig(origin=(-100.0, -100.0), sigma_r=0.5, sigma_a=5e-5)
    ds = ingest_csv(path, sensor, tracklet_len=100, rng_seed=3, dt=1.0)
    assert len(ds) == 4  # 430 // 100, remainder discarded
    assert all(len(trk) == 100 for trk in ds.tracklets)
    assert ds.tracklets[1].truth[0, 0] == pytest.approx(1000.0)


def test_ingest_csv_too_short(tmp_path):
    path = tmp_path / "short.csv"
    with path.open("w") as fh:
        fh.write("t,x,y,vx,vy\n")
        for k in range(99):
            fh.write(f"{k},1,2,0,0\n")
    with pytest.raises(EmptyDatasetError):
        ingest_csv(path, SensorConfig(origin=(0, 0), sigma_r=1, sigma_a=0.01), 100, 0, dt=1.0)


def test_ingest_csv_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    with path.open("w") as fh:
        fh.write("t,x,y,vx,vy\n")
        fh.write("0,1,2,0,0\n")
        fh.write("1,oops,2,0,0\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        ingest_csv(path, SensorConfig(origin=(0, 0), sigma_r=1, sigma_a=0.01), 1, 0, dt=1.0)


def test_ingest_csv_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,x,y\n0,1,2\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        ingest_csv(path, SensorConfig(origin=(0, 0), sigma_r=1, sigma_a=0.01), 1, 0, dt=1.0)


def test_tracklet_roundtrip_disk(tmp_path):
    cfg = GctConfig(n_steps=25)
    sensor = SensorConfig(origin=(0, 0), sigma_r=5.0, sigma_a=0.005)
    ds = make_dataset(3, cfg, sensor, seed=5)
    save_dataset(tmp_path, ds)
    loaded = load_dataset(tmp_path, sensor, dt=cfg.dt)
    assert len(loaded) == 3
    for a, b in zip(ds.tracklets, loaded.tracklets):
        assert np.allclose(a.truth, b.truth, rtol=0, atol=0)
        assert np.allclose(a.meas, b.meas, rtol=0, atol=0)


@pytest.mark.parametrize("kind, line, text, message", [
    ("meas", 0, "t,range", "meas_0000.csv line 1: expected header t,range,bearing"),
    ("meas", 2, "1,2,3,4", "meas_0000.csv line 3: expected 3 fields, got 4"),
    ("meas", 3, "2,inf,0.5", "meas_0000.csv line 4: non-finite value"),
    ("truth", 1, "0,1,2,3", "truth_0000.csv line 2: expected 5 fields, got 4"),
])
def test_read_tracklet_names_the_file_and_line_of_a_fault(tmp_path, kind, line, text, message):
    sensor = SensorConfig(origin=(0, 0), sigma_r=5.0, sigma_a=0.005)
    save_dataset(tmp_path, make_dataset(1, GctConfig(n_steps=5), sensor, seed=5))
    path = tmp_path / f"{kind}_0000.csv"
    lines = path.read_text().splitlines()
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as caught:
        read_tracklet(tmp_path, 0, dt=1.0)
    assert str(caught.value) == message
