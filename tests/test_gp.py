import numpy as np
import pytest
from scipy.linalg.blas import dtrsm
from scipy.spatial.distance import cdist

from conftest import finite_difference
import tracklearn.autodiff as ad
from tracklearn import gp
from tracklearn.gp import (
    EXP_NORMAL_AT,
    GpHyper,
    GpModel,
    gp_fit,
    init_particles,
    kernel_matrix,
    load_gp,
    negative_lml,
    pf_estimate,
    pf_propagate,
    pf_resample,
    pf_reweight,
    pf_step,
    predict_axes,
    save_gp,
    systematic_resample,
    velocity_pairs,
)
from tracklearn.statespace import (
    SensorConfig,
    Tracklet,
    measure,
    polar_to_cartesian,
)


def make_tracklet(velocities, dt=1.0):
    velocities = np.asarray(velocities, dtype=float)
    positions = np.vstack([[0.0, 0.0], np.cumsum(velocities[:-1] * dt, axis=0)])
    truth = np.hstack([positions, velocities])
    return Tracklet(dt=dt, truth=truth, meas=np.full((len(truth), 2), np.nan))


def predict(model, u):
    """Posterior mean and variance at one query point."""
    means, variances = model.predict_batch(np.reshape(u, (1, 2)))
    return float(means[0]), float(variances[0])


def log_marginal_likelihood(inputs, outputs, hyper):
    hypers = (np.array([[v]]) for v in (hyper.sigma0_sq, hyper.length_sq, hyper.noise_sq))
    sq = cdist(inputs, inputs, "sqeuclidean")
    return -ad.scalar(negative_lml(*hypers, sq, np.reshape(outputs, (len(outputs), -1))))


def test_kernel_examples():
    hyper = GpHyper(sigma0_sq=2.5, length_sq=4.0, noise_sq=0.1)
    x = np.array([[1.0, 2.0]])
    assert kernel_matrix(x, x, hyper)[0, 0] == pytest.approx(2.5)
    # squared distance 2*l^2 -> sigma0^2 / e
    x2 = x + np.array([np.sqrt(8.0), 0.0])
    assert kernel_matrix(x, x2, hyper)[0, 0] == pytest.approx(2.5 / np.e)


def test_kernel_writes_zero_where_exp_is_not_a_normal_float():
    """kernel_matrix writes 0.0 where exp would be subnormal or zero, and keeps
    the bits of the plain formula everywhere else: ulp by ulp across that
    threshold, and at infinite and NaN distances."""
    tiny = np.finfo(float).tiny
    assert np.exp(EXP_NORMAL_AT) >= tiny > np.exp(np.nextafter(EXP_NORMAL_AT, -np.inf))
    below, above = [np.nextafter(EXP_NORMAL_AT, -np.inf)], [EXP_NORMAL_AT]
    for _ in range(64):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], 0.0))
    args = np.concatenate([below, above, np.linspace(-746.0, -708.0, 4001),
                           [-1e300, -800.0, -708.4, -1.0, -0.0]])
    # length_sq = 0.5 makes the kernel's argument exactly -sq
    for hyper in (GpHyper(sigma0_sq=5.29, length_sq=0.1885), GpHyper(sigma0_sq=2.5, length_sq=0.5)):
        sq = np.append(-2.0 * hyper.length_sq * args, [np.inf, np.nan]).reshape(1, -1)
        arg = -0.5 * sq / hyper.length_sq
        plain = hyper.sigma0_sq * np.exp(arg)
        got = kernel_matrix(None, None, hyper, sq)
        flushed = arg < EXP_NORMAL_AT
        assert flushed.sum() > 4001 // 2  # the linspace is mostly below the threshold
        assert np.array_equal(got[flushed], np.zeros(flushed.sum()))
        assert np.array_equal(got[~flushed], plain[~flushed], equal_nan=True)
        assert np.isnan(got[0, -1]) and got[0, -2] == 0.0
    # at length_sq = 0.5, the 65 arguments below the threshold are flushed and
    # the 65 from it up are not
    assert np.array_equal(flushed[0, :130], np.arange(130) < 65)


def test_kernel_symmetry():
    hyper = GpHyper(sigma0_sq=1.3, length_sq=0.7, noise_sq=0.1)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
    assert kernel_matrix(a, b, hyper) == pytest.approx(kernel_matrix(b, a, hyper).T, rel=1e-15)


def test_single_pair_closed_form():
    # one training pair, test at the training input
    hyper = GpHyper(sigma0_sq=2.0, length_sq=1.0, noise_sq=0.5)
    u = np.array([[0.3, -0.7]])
    z = 1.7
    model = GpModel(u, [z], hyper)
    mean, var = predict(model, u[0])
    s0, sv = hyper.sigma0_sq, hyper.noise_sq
    assert mean == pytest.approx(z * s0 / (s0 + sv), rel=1e-12)
    assert var == pytest.approx(s0 - s0**2 / (s0 + sv), rel=1e-12)


def test_constant_training_data_interpolates():
    const = 3.0
    vels = np.tile([const, -const], (30, 1))
    trk = make_tracklet(vels)
    mx, my = gp_fit([trk], GpHyper(noise_sq=1e-6), optimize=False)
    mean_x, _ = predict(mx, [const, -const])
    mean_y, _ = predict(my, [const, -const])
    assert mean_x == pytest.approx(const, abs=1e-6)
    assert mean_y == pytest.approx(-const, abs=1e-6)


def test_predict_matches_dense_inverse_oracle():
    rng = np.random.default_rng(21)
    for trial in range(5):
        hyper = GpHyper(
            sigma0_sq=rng.uniform(0.5, 3.0),
            length_sq=rng.uniform(0.5, 3.0),
            noise_sq=rng.uniform(0.01, 0.5),
        )
        inputs = rng.standard_normal((50, 2)) * 2.0
        outputs = np.sin(inputs[:, 0]) + rng.standard_normal(50) * 0.1
        model = GpModel(inputs, outputs, hyper)
        queries = rng.standard_normal((20, 2)) * 2.0
        means, variances = model.predict_batch(queries)
        # dense oracle: explicit inverse of K + sigma^2 I
        gram = kernel_matrix(inputs, inputs, hyper) + hyper.noise_sq * np.eye(50)
        inv = np.linalg.inv(gram)
        k_star = kernel_matrix(inputs, queries, hyper)
        mean_oracle = k_star.T @ inv @ outputs
        var_oracle = hyper.sigma0_sq - np.einsum("nm,nk,km->m", k_star, inv, k_star)
        assert np.allclose(means, mean_oracle, rtol=1e-8, atol=1e-8)
        assert np.allclose(variances, var_oracle, rtol=1e-8, atol=1e-8)


def predict_every_row(models, queries):
    """Full-width reference for predict_axes: kernel, triangular solve, variances
    and mean on every query row, copies included."""
    sq = cdist(models[0].inputs, queries, "sqeuclidean")
    out = []
    for model in models:
        k_star = kernel_matrix(model.inputs, queries, model.hyper, sq)
        half = dtrsm(1.0, model.chol.T, k_star, trans_a=1)
        variances = np.clip(model.hyper.sigma0_sq - np.einsum("nm,nm->m", half, half),
                            0.0, model.hyper.sigma0_sq)
        out.append((k_star.T @ model.solve_vector, variances))
    return out


def _copies_queries(rng):
    """(queries, their distinct rows): a resampled cloud's runs of adjacent
    copies, then a copy of its first row that is not adjacent to it, 0.0 next
    to -0.0 (equal, so one row) and two NaN rows (never equal, so two rows)."""
    cloud = rng.standard_normal((300, 2)) * 1.5
    keep = systematic_resample(rng.dirichlet(np.full(300, 0.05)), rng)
    runs = cloud[np.unique(keep)]  # keep is sorted, so its copies are adjacent
    tail = np.array([[0.0, 0.5], [-0.0, 0.5], [np.nan, 0.1], [np.nan, 0.1], runs[0]])
    queries = np.vstack([cloud[keep], tail])
    return queries, np.vstack([runs, tail[[0, 2, 3, 4]]])


@pytest.mark.parametrize("repeats", [True, False], ids=["copies", "no-copies"])
def test_predict_axes_keeps_the_bits_of_predicting_every_row(monkeypatch, repeats):
    """Means and variances agree with predicting every row by a triangular
    solve, to 1e-12 of the largest |mean| and variance: predict_axes takes
    L^-1 k_star by a GEMM and the mean by a GEMV on the distinct columns only,
    and their summation order depends on how many there are."""
    rng = np.random.default_rng(17)
    inputs = rng.standard_normal((160, 2)) * 1.5
    outputs = np.stack([np.sin(inputs[:, 0]), np.cos(inputs[:, 1])], axis=1)
    models = [GpModel(inputs, outputs[:, k], GpHyper(1.3, 0.7, 0.02)) for k in range(2)]
    if repeats:
        queries, distinct = _copies_queries(rng)
    else:
        queries = distinct = rng.standard_normal((300, 2)) * 1.5
    kernel_queries = []

    def spy(a, b, hyper, sq=None):
        kernel_queries.append(b.copy())
        return kernel_matrix(a, b, hyper, sq)

    monkeypatch.setattr(gp, "kernel_matrix", spy)
    got = predict_axes(models, queries)
    monkeypatch.undo()
    for (mean, var), (ref_mean, ref_var) in zip(got, predict_every_row(models, queries)):
        assert np.allclose(mean, ref_mean, rtol=0.0, atol=1e-12 * np.nanmax(np.abs(ref_mean)),
                           equal_nan=True)
        assert np.allclose(var, ref_var, rtol=0.0, atol=1e-12 * np.nanmax(ref_var), equal_nan=True)
    assert np.isnan(got[0][0]).sum() == 2 * repeats
    # the kernel sees each run of copies once, for both axes
    assert len(kernel_queries) == 1
    assert np.array_equal(kernel_queries[0], distinct, equal_nan=True)
    assert len(distinct) < len(queries) / 2 if repeats else len(distinct) == len(queries)


def test_variance_bounds_ten_thousand_queries():
    rng = np.random.default_rng(33)
    hyper = GpHyper(sigma0_sq=1.7, length_sq=0.8, noise_sq=0.05)
    inputs = rng.standard_normal((80, 2))
    outputs = rng.standard_normal(80)
    model = GpModel(inputs, outputs, hyper)
    queries = rng.uniform(-5, 5, size=(10_000, 2))
    _, variances = model.predict_batch(queries)
    assert np.all(variances >= 0.0)
    assert np.all(variances <= hyper.sigma0_sq)


def test_far_query_reverts_to_prior():
    hyper = GpHyper(sigma0_sq=2.0, length_sq=0.5, noise_sq=0.1)
    inputs = np.zeros((10, 2)) + np.linspace(0, 1, 10)[:, None]
    model = GpModel(inputs, np.ones(10), hyper)
    mean, var = predict(model, [100.0, 100.0])
    assert abs(mean) < 1e-12
    assert var == pytest.approx(hyper.sigma0_sq)


def test_noiseless_interpolation_at_training_input():
    hyper = GpHyper(sigma0_sq=1.0, length_sq=1.0, noise_sq=1e-12)
    rng = np.random.default_rng(4)
    inputs = rng.standard_normal((12, 2)) * 3.0
    outputs = rng.standard_normal(12)
    model = GpModel(inputs, outputs, hyper)
    for k in (0, 5, 11):
        mean, _ = predict(model, inputs[k])
        assert mean == pytest.approx(outputs[k], abs=1e-5)


def test_fit_hyper_improves_marginal_likelihood():
    rng = np.random.default_rng(6)
    vels = []
    v = np.array([5.0, 0.0])
    rot = np.array([[np.cos(0.2), -np.sin(0.2)], [np.sin(0.2), np.cos(0.2)]])
    for _ in range(120):
        vels.append(v.copy())
        v = rot @ v + rng.standard_normal(2) * 0.05
    trk = make_tracklet(np.asarray(vels))
    inputs, outputs = velocity_pairs([trk])
    hyper0 = GpHyper(sigma0_sq=1.0, length_sq=1.0, noise_sq=0.01)
    mx, my = gp_fit([trk], hyper0, optimize=True, seed=0)
    assert my.hyper_fit is mx.hyper_fit and my.hyper == mx.hyper  # one ascent for both axes
    assert not mx.hyper_fit.fell_back
    both = np.stack([mx.outputs, my.outputs], axis=1)
    lml0 = log_marginal_likelihood(mx.inputs, both, hyper0)
    lml1 = log_marginal_likelihood(mx.inputs, both, mx.hyper)
    assert lml1 >= lml0


def test_negative_lml_gradient_matches_fd_on_a_sparse_gram():
    """The tape gradient of the objective fit_hyper descends, at N = 80 with a
    length scale so short that about half of the gram is exactly zero, on one
    axis's outputs and on both axes' (the N x 2 y that gp_fit gives it), whose
    value is the sum of each column's."""
    rng = np.random.default_rng(17)
    inputs = rng.uniform(0.0, 60.0, (80, 2))
    both = np.sin(inputs / 4.0) + 0.1 * rng.standard_normal((80, 2))
    sq = cdist(inputs, inputs, "sqeuclidean")
    rho0 = np.log([1.5, 0.5, 0.05])  # log signal variance, squared length scale, noise
    assert np.mean(kernel_matrix(inputs, inputs, GpHyper(*np.exp(rho0))) == 0.0) > 0.4

    def f(rho, y):
        return ad.scalar(negative_lml(*(np.exp(r).reshape(1, 1) for r in rho), sq, y))

    for y in (both[:, :1], both):
        tape = ad.make_tape()
        leaf = ad.var(tape, rho0.reshape(1, 3))
        ad.backward(negative_lml(*(ad.exp(ad.item(leaf, 0, k)) for k in range(3)), sq, y))
        fd = finite_difference(lambda rho: f(rho, y), rho0)
        assert np.allclose(leaf.grad.ravel(), fd, rtol=1e-6, atol=1e-6), y.shape
    # the log det and the 2 pi term count once per column, the quadratic term sums over both
    assert f(rho0, both) == pytest.approx(f(rho0, both[:, :1]) + f(rho0, both[:, 1:]),
                                          rel=1e-12, abs=0.0)


def test_gp_fit_subsamples_to_budget():
    vels = np.random.default_rng(9).standard_normal((300, 2))
    trk = make_tracklet(vels)
    mx, my = gp_fit([trk], max_pairs=50, optimize=False)
    assert len(mx) == 50
    assert len(my) == 50


@pytest.mark.parametrize("max_pairs", [0, 1])
def test_gp_fit_needs_two_pairs_after_the_cut(max_pairs):
    trk = make_tracklet(np.random.default_rng(9).standard_normal((30, 2)))
    with pytest.raises(ValueError, match=f"need at least 2 training pairs, got {max_pairs}"):
        gp_fit([trk], max_pairs=max_pairs, optimize=False)


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    vels = rng.standard_normal((40, 2)) * 3.0
    trk = make_tracklet(vels)
    models = gp_fit([trk], optimize=False)
    sensor = SensorConfig(origin=(1.0, -2.0), sigma_r=1.5, sigma_a=0.00523)
    path = tmp_path / "model.gpm"
    save_gp(path, models, dt=1.0, sensor=sensor)
    assert path.read_text().startswith("GPM1")
    loaded, dt, loaded_sensor = load_gp(path)
    assert dt == 1.0
    assert np.allclose(loaded_sensor.origin, sensor.origin)
    queries = rng.standard_normal((5, 2))
    for orig, back in zip(models, loaded):
        m0, v0 = orig.predict_batch(queries)
        m1, v1 = back.predict_batch(queries)
        assert np.allclose(m0, m1, rtol=1e-12)
        assert np.allclose(v0, v1, rtol=1e-12)


def test_both_axes_share_one_factorization(monkeypatch, tmp_path):
    """gp_fit and load_gp factor the gram once per model pair, and the pair
    predicts exactly as two models built apart."""
    rng = np.random.default_rng(13)
    trk = make_tracklet(rng.standard_normal((40, 2)) * 3.0)
    hyper = GpHyper(sigma0_sq=4.0, length_sq=2.0, noise_sq=0.05)
    inputs, outputs = velocity_pairs([trk])
    apart = [GpModel(inputs, outputs[:, axis], hyper) for axis in range(2)]
    queries = rng.standard_normal((6, 2)) * 3.0
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
    models = gp_fit([trk], hyper, optimize=False)
    assert len(factored) == 1
    path = tmp_path / "model.gpm"
    save_gp(path, models, dt=1.0, sensor=SensorConfig())
    loaded = load_gp(path)[0]
    assert len(factored) == 2
    for pair in (models, loaded):
        for model, alone in zip(pair, apart):
            assert np.array_equal(model.solve_vector, alone.solve_vector)
        for (mean, var), alone in zip(predict_axes(pair, queries), apart):
            expected = alone.predict_batch(queries)
            assert np.array_equal(mean, expected[0]) and np.array_equal(var, expected[1])


def test_load_gp_refuses_axes_with_different_hyperparameters(tmp_path):
    """Both axes predict through one kernel, so a file whose hyper_x and
    hyper_y differ is refused, naming the file."""
    trk = make_tracklet(np.random.default_rng(13).standard_normal((40, 2)) * 3.0)
    path = tmp_path / "model.gpm"
    save_gp(path, gp_fit([trk], optimize=False), dt=1.0, sensor=SensorConfig())
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("hyper_y "))
    lines[k] = "hyper_y 0.9 1.6 0.05"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}: hyper_x and hyper_y differ"):
        load_gp(path)


@pytest.mark.parametrize("tag, rows", [("hyper_x", 0), ("z_y", 1)])
def test_load_gp_names_the_first_missing_line_of_a_truncated_file(tmp_path, tag, rows):
    """A file cut after `rows` lines of the tag (hyper_x: none; z_y: one of
    its n_pairs rows) is refused with a ValueError naming the file and the tag."""
    trk = make_tracklet(np.random.default_rng(13).standard_normal((40, 2)) * 3.0)
    path = tmp_path / "model.gpm"
    save_gp(path, gp_fit([trk], optimize=False), dt=1.0, sensor=SensorConfig())
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
    path.write_text("\n".join(lines[:start + rows]) + "\n")
    with pytest.raises(ValueError, match=f"^{path}: {tag} line missing$"):
        load_gp(path)


# -- particle machinery -------------------------------------------------------


def test_systematic_resample_uniform_keeps_everyone():
    rng = np.random.default_rng(2)
    weights = np.full(64, 1.0 / 64)
    idx = systematic_resample(weights, rng)
    assert np.array_equal(np.sort(idx), np.arange(64))


def test_systematic_resample_one_hot():
    rng = np.random.default_rng(3)
    weights = np.zeros(32)
    weights[11] = 1.0
    idx = systematic_resample(weights, rng)
    assert np.all(idx == 11)


def test_weights_normalized_after_reweight():
    rng = np.random.default_rng(8)
    particles = np.hstack([rng.uniform(90, 110, (200, 2)), rng.standard_normal((200, 2))])
    sensor = SensorConfig(origin=(0, 0), sigma_r=2.0, sigma_a=0.01)
    weights, collapsed = pf_reweight(particles, measure([100.0, 100.0], sensor), sensor)
    assert not collapsed
    assert abs(weights.sum() - 1.0) <= 1e-12


def test_reweight_flags_a_collapsed_cloud_and_keeps_its_weights_uniform():
    """Cloud 1 sits 10 000 km from its z, so every weight underflows: it is
    flagged, and its weights stay uniform; cloud 0, at its z, is reweighted."""
    sensor = SensorConfig(origin=(0, 0), sigma_r=0.1, sigma_a=1e-4)
    particles = np.zeros((2, 10, 4))
    particles[0, :, 0] = 10.0 + np.linspace(-0.1, 0.1, 10)
    particles[1, :, :2] = 1e7
    weights, collapsed = pf_reweight(particles, np.array([[10.0, 10.0], [0.0, 0.0]]), sensor)
    assert list(collapsed) == [False, True]
    assert np.array_equal(weights[1], np.full(10, 0.1))
    assert weights[0].argmax() in (4, 5) and abs(weights[0].sum() - 1.0) <= 1e-12


def test_resampling_preserves_weighted_mean():
    rng = np.random.default_rng(17)
    m = 100
    particles = np.hstack([rng.standard_normal((m, 2)) * 5.0, rng.standard_normal((m, 2))])
    weights = np.random.default_rng(1).dirichlet(np.ones(m))
    target = weights @ particles[:, :2]
    means = []
    for _ in range(10_000):
        res = pf_resample(particles, weights, rng)
        means.append(res[:, :2].mean(axis=0))
    means = np.asarray(means)
    mc_mean = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / np.sqrt(len(means))
    assert np.all(np.abs(mc_mean - target) <= 3.0 * se + 1e-12)


def test_pf_estimate_weighted_moments():
    particles = np.array([[0.0, 0.0, 1.0, 0.0], [2.0, 0.0, 1.0, 0.0]])
    mean, cov = pf_estimate(particles, np.array([0.25, 0.75]))
    assert mean[:2] == pytest.approx([1.5, 0.0])
    # weighted sample variance of x: 0.25*(1.5)^2 + 0.75*(0.5)^2 = 0.75
    assert cov[0, 0] == pytest.approx(0.75)


def test_pf_step_tracks_constant_velocity():
    """Constant-velocity truth, GP trained on matching data, near-zero process
    noise: the posterior position RMSE stays at or below the raw measurement
    error over 20 Monte-Carlo runs."""
    rng = np.random.default_rng(40)
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=1.0, sigma_a=0.002)
    vel = np.array([3.0, 1.0])
    train = make_tracklet(np.tile(vel, (40, 1)))
    models = gp_fit([train], GpHyper(noise_sq=1e-4), optimize=False)

    n_steps = 25
    pf_err, meas_err = [], []
    for _ in range(20):
        start = np.array([200.0, 150.0])
        truth = start + np.arange(n_steps)[:, None] * vel
        ps = init_particles((np.concatenate([start, vel]), np.diag([1.0, 1.0, 0.2, 0.2])), 300,
                            rng)
        for k in range(1, n_steps):
            r, a = measure(truth[k], sensor)
            z = np.array([r + sensor.sigma_r * rng.standard_normal(),
                          a + sensor.sigma_a * rng.standard_normal()])
            ps, _, post, _ = pf_step(ps, z, models, sensor, sigma_p=1e-3, rng=rng, dt=1.0)
            pf_err.append(np.linalg.norm(post[:2] - truth[k]))
            meas_err.append(np.linalg.norm(polar_to_cartesian(*z, sensor) - truth[k]))
    assert np.sqrt(np.mean(np.square(pf_err))) <= np.sqrt(np.mean(np.square(meas_err)))


def test_pf_step_reseeds_around_measurement_after_collapse():
    """Every particle starts kilometres from z, so every weight underflows:
    pf_step re-draws the cloud around z instead of raising."""
    rng = np.random.default_rng(41)
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=1.0, sigma_a=0.002)
    models = gp_fit([make_tracklet(np.tile([3.0, 1.0], (40, 1)))], GpHyper(noise_sq=1e-4),
                    optimize=False)
    init = np.array([5000.0, 5000.0, 3.0, 1.0]), np.diag([1.0, 1.0, 0.2, 0.2])
    ps = init_particles(init, 200, rng)
    z = np.array([500.0, 0.3])
    ps, prior, post, _ = pf_step(ps, z, models, sensor, sigma_p=1e-3, rng=rng)
    target = polar_to_cartesian(*z, sensor)
    assert np.linalg.norm(prior[:2] - target) > 5000.0
    assert np.linalg.norm(post[:2] - target) < 5.0
    assert np.all(np.linalg.norm(ps[:, :2] - target, axis=1) < 50.0)
