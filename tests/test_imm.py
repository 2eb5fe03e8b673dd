import numpy as np
import pytest

from conftest import finite_difference
import tracklearn.autodiff as ad
from tracklearn import imm
from tracklearn.ekf import CwnaModel, init_track, run_ekf
from tracklearn.imm import (
    ImmConfig,
    ImmGraph,
    ImmParams,
    MODE_CT,
    MODE_CV,
    default_params,
    imm_nll,
    load_imm,
    run_imm,
    save_imm,
    train_imm,
)
from tracklearn.simulate import GctConfig, generate_gct, make_dataset, simulate_measurements
from tracklearn.statespace import Measurement, SensorConfig, Tracklet


SENSOR = SensorConfig(origin=(0.0, 0.0), sigma_r=1.5, sigma_a=0.00523)


def gct_tracklet(seed=0, n_steps=30, sensor=SENSOR):
    cfg = GctConfig(n_steps=n_steps)
    rng = np.random.default_rng(seed)
    return simulate_measurements(generate_gct(cfg, rng), sensor, rng)


def straight_tracklet(n_steps=30):
    """Constant-velocity truth, so a fast-turn mode's probability falls to the floor."""
    k = np.arange(n_steps)[:, None]
    truth = np.hstack([[300.0, 200.0] + k * [10.0, 0.0], np.tile([10.0, 0.0], (n_steps, 1))])
    trk = Tracklet(dt=1.0, truth=truth, meas=np.full((n_steps, 2), np.nan))
    return simulate_measurements(trk, SENSOR, np.random.default_rng(0))


def two_point_init(trk):
    return init_track(Measurement(0, *trk.meas[0]), Measurement(1, *trk.meas[1]), SENSOR, trk.dt)


def params_vector(params: ImmParams, cfg: ImmConfig):
    blocks = params.to_dict(train_r=cfg.train_r)
    names, sizes = list(blocks), [np.size(blocks[k]) for k in blocks]
    vec = np.concatenate([np.asarray(blocks[k], dtype=float).ravel() for k in names])
    return vec, names, sizes


def params_from_vector(params: ImmParams, cfg: ImmConfig, vec):
    blocks = params.to_dict(train_r=cfg.train_r)
    out, at = {}, 0
    for name, block in blocks.items():
        size = np.size(block)
        out[name] = np.asarray(vec[at : at + size]).reshape(np.shape(block))
        at += size
    return params.with_dict(out)


def test_single_mode_imm_matches_ekf():
    trk = gct_tracklet(seed=1, n_steps=40)
    q = 0.8
    cfg = ImmConfig(modes=(MODE_CV,), train_r=False)
    params = default_params(SENSOR, cfg, init_q=q)
    pred_imm, post_imm, covs_imm, nll_imm = run_imm(params, trk, SENSOR, cfg)
    pred_ekf, post_ekf, nll_ekf = run_ekf(trk, SENSOR, CwnaModel(dt=trk.dt, q=q))
    scale = np.maximum(1.0, np.abs(post_ekf))
    assert np.max(np.abs(post_imm - post_ekf) / scale) < 1e-12
    assert np.max(np.abs(pred_imm - pred_ekf) / np.maximum(1.0, np.abs(pred_ekf))) < 1e-12
    assert nll_imm == pytest.approx(nll_ekf, rel=1e-12)


def test_identity_transition_is_no_mixing():
    """With p = I the mixed states equal the per-mode states, so a 2-mode IMM
    whose modes are identical CV models reproduces the single-mode run."""
    trk = gct_tracklet(seed=2, n_steps=25)
    cfg2 = ImmConfig(modes=(MODE_CV, MODE_CV), train_r=False)
    params2 = default_params(SENSOR, cfg2, init_q=0.5)
    params2.trans_logits = np.array([[60.0, 0.0], [0.0, 60.0]])  # softmax ~ identity
    cfg1 = ImmConfig(modes=(MODE_CV,), train_r=False)
    params1 = default_params(SENSOR, cfg1, init_q=0.5)
    _, post2, _, _ = run_imm(params2, trk, SENSOR, cfg2)
    _, post1, _, _ = run_imm(params1, trk, SENSOR, cfg1)
    assert np.allclose(post2, post1, rtol=1e-10, atol=1e-10)


def test_identical_modes_share_everything():
    """Duplicate CV modes: likelihoods match, mode probabilities stay at 1/2,
    outputs equal the plain EKF regardless of the transition matrix."""
    trk = gct_tracklet(seed=3, n_steps=25)
    cfg = ImmConfig(modes=(MODE_CV, MODE_CV), train_r=False)
    params = default_params(SENSOR, cfg, init_q=0.7)
    params.trans_logits = np.log(np.array([[0.7, 0.3], [0.2, 0.8]]))
    _, post_imm, _, nll_imm = run_imm(params, trk, SENSOR, cfg)
    _, post_ekf, nll_ekf = run_ekf(trk, SENSOR, CwnaModel(dt=trk.dt, q=0.7))
    assert np.allclose(post_imm, post_ekf, rtol=1e-9, atol=1e-9)
    assert nll_imm == pytest.approx(nll_ekf, rel=1e-9)


def test_mixing_spread_scalar_hand_oracle():
    """2 modes, equal weights, uniform transitions: the mixed covariance must
    include the outer-product spread of the mode means (hand computation)."""
    from tracklearn.statespace import StateEstimate

    cfg = ImmConfig(modes=(MODE_CV, MODE_CV), train_r=False)
    params = default_params(SENSOR, cfg, init_q=1.0)
    params.trans_logits = np.zeros((2, 2))  # uniform rows
    init = StateEstimate(mean=[100.0, 0.0, 1.0, 0.0], cov=np.eye(4))
    graph = ImmGraph(params, init, 1.0, SENSOR.origin, cfg, record=True)
    # override per-mode states with distinct means
    xa = np.array([[1.0], [0.0], [0.0], [0.0]])
    xb = np.array([[3.0], [0.0], [0.0], [0.0]])
    graph.modes_x = [ad.const(graph.tape, xa), ad.const(graph.tape, xb)]
    graph.modes_p = [ad.const(graph.tape, np.eye(4)), ad.const(graph.tape, 2.0 * np.eye(4))]
    graph.mu = [ad.const(graph.tape, 0.5), ad.const(graph.tape, 0.5)]

    # hand computation: mu_pred = (0.5, 0.5); cond weights all 0.5
    # x0 = 2.0; spread per mode: (1-2)^2 = 1 and (3-2)^2 = 1
    # P0[0,0] = 0.5*(1 + 1) + 0.5*(2 + 1) = 2.5; other diag = 1.5
    mu_pred = []
    for j in range(2):
        acc = graph.p_rows[0][j] * graph.mu[0] + graph.p_rows[1][j] * graph.mu[1]
        mu_pred.append(acc)
    cond = [[graph.p_rows[i][j] * graph.mu[i] / mu_pred[j] for i in range(2)] for j in range(2)]
    x0 = cond[0][0] * graph.modes_x[0] + cond[0][1] * graph.modes_x[1]
    assert x0.value[0, 0] == pytest.approx(2.0)
    p0 = None
    for i in range(2):
        diff = graph.modes_x[i] - x0
        term = cond[0][i] * (graph.modes_p[i] + diff @ diff.T)
        p0 = term if p0 is None else p0 + term
    assert p0.value[0, 0] == pytest.approx(2.5)
    assert p0.value[1, 1] == pytest.approx(1.5)


def test_combination_scalar_hand_oracle():
    """One-hot mode probability: the combined state equals that mode exactly;
    50/50 with distinct means adds the spread term (hand numbers)."""
    tape = ad.make_tape()
    xa = ad.const(tape, np.array([[2.0], [0.0], [0.0], [0.0]]))
    xb = ad.const(tape, np.array([[4.0], [0.0], [0.0], [0.0]]))
    pa = ad.const(tape, np.eye(4))
    pb = ad.const(tape, 3.0 * np.eye(4))
    for mu, expected_mean, expected_p00 in (
        ((1.0, 0.0), 2.0, 1.0),
        ((0.5, 0.5), 3.0, 0.5 * (1 + 1) + 0.5 * (3 + 1)),
    ):
        mus = [ad.const(tape, mu[0]), ad.const(tape, mu[1])]
        x = mus[0] * xa + mus[1] * xb
        p = None
        for m_var, x_var, p_var in ((mus[0], xa, pa), (mus[1], xb, pb)):
            diff = x_var - x
            term = m_var * (p_var + diff @ diff.T)
            p = term if p is None else p + term
        assert x.value[0, 0] == pytest.approx(expected_mean)
        assert p.value[0, 0] == pytest.approx(expected_p00)


def test_ct_mode_zero_rate_equals_cv():
    trk = gct_tracklet(seed=4, n_steps=25)
    cfg_ct = ImmConfig(modes=(MODE_CT,), train_r=False)
    params_ct = default_params(SENSOR, cfg_ct, init_q=0.5, init_omega=0.0)
    cfg_cv = ImmConfig(modes=(MODE_CV,), train_r=False)
    params_cv = default_params(SENSOR, cfg_cv, init_q=0.5)
    _, post_ct, _, nll_ct = run_imm(params_ct, trk, SENSOR, cfg_ct)
    _, post_cv, _, nll_cv = run_imm(params_cv, trk, SENSOR, cfg_cv)
    assert np.allclose(post_ct, post_cv, rtol=1e-12, atol=1e-10)
    assert nll_ct == pytest.approx(nll_cv, rel=1e-12)


def test_mode_likelihood_matches_density_oracle():
    """The per-mode log-likelihood equals the bivariate Gaussian density of
    the innovation under S, checked against a direct evaluation."""
    from tracklearn.ekf import CwnaModel

    trk = gct_tracklet(seed=5, n_steps=10)
    cfg = ImmConfig(modes=(MODE_CV,), train_r=False)
    params = default_params(SENSOR, cfg, init_q=0.5)
    loss, _ = imm_nll(params, trk, SENSOR, cfg)

    # independent oracle: run the plain EKF and evaluate densities directly
    model = CwnaModel(dt=trk.dt, q=0.5)
    from tracklearn.ekf import ekf_update, init_track, predict_cwna

    est = two_point_init(trk)
    total = 0.0
    for t in range(2, len(trk)):
        pred = predict_cwna(est, model)
        est, nu, s = ekf_update(pred, Measurement(t, *trk.meas[t]), SENSOR)
        density = np.exp(-0.5 * nu @ np.linalg.solve(s, nu)) / (
            2 * np.pi * np.sqrt(np.linalg.det(s))
        )
        total -= np.log(density)
    assert loss.scalar() == pytest.approx(total, rel=1e-9)


def test_nll_gradient_matches_finite_differences():
    """Acceptance-grade check at module scope: 10-step sequence, 2 modes."""
    trk = gct_tracklet(seed=6, n_steps=12)
    cfg = ImmConfig(modes=(MODE_CV, MODE_CT), train_r=True)
    params = default_params(SENSOR, cfg, init_q=0.5, init_omega=0.15)
    vec0, names, sizes = params_vector(params, cfg)

    loss, leaves = imm_nll(params, trk, SENSOR, cfg)
    ad.backward(loss)
    grad = np.concatenate([
        np.asarray(leaves[name].grad).reshape(-1)[: size]
        for name, size in zip(names, sizes)
    ])

    def f(vec):
        p = params_from_vector(params, cfg, vec)
        value, _ = imm_nll(p, trk, SENSOR, cfg)
        return value.scalar()

    fd = finite_difference(f, vec0, rel_step=1e-6)
    rel_err = np.abs(grad - fd) / np.maximum.reduce([np.abs(grad), np.abs(fd), np.ones_like(fd)])
    assert np.mean(rel_err < 1e-5) >= 0.95
    assert np.all(rel_err < 1e-3)


@pytest.mark.parametrize("likelihood", ["mixture", "moment"])
@pytest.mark.parametrize("modes", [(MODE_CV, MODE_CT), (MODE_CV, MODE_CT, MODE_CT)])
def test_array_path_matches_taped_recursion_bit_for_bit(modes, likelihood):
    cfg = ImmConfig(modes=modes, likelihood=likelihood)
    floored = default_params(SENSOR, cfg, init_q=0.3, init_omega=1.0, diag_prob=1.0 - 1e-9)
    cases = [(default_params(SENSOR, cfg, init_q=0.3, init_omega=0.12), gct_tracklet(seed=20)),
             (floored, straight_tracklet())]
    for params, trk in cases:
        *taped_rows, taped = imm._filter(params, trk, SENSOR, cfg, record=True)
        pred, post, covs, nll = run_imm(params, trk, SENSOR, cfg)
        for rows, taped_row in zip((pred, post, covs), taped_rows):
            assert np.array_equal(rows, taped_row)
        assert nll == ad.scalar(taped.loss())
        assert len(taped.tape) > 0

    # the floored case does reach prob_floor, and the array path records nothing
    params, trk = cases[1]
    graph = ImmGraph(params, two_point_init(trk),
                     trk.dt, SENSOR.origin, cfg)
    lowest = []
    for t in range(2, len(trk)):
        graph.step(trk.meas[t, 0], trk.meas[t, 1])
        lowest.append(min(ad.scalar(m) for m in graph.mu))
    assert min(lowest) == pytest.approx(cfg.prob_floor, rel=1e-9)
    assert len(graph.tape) == 0


def test_train_zero_steps_returns_input():
    trk = gct_tracklet(seed=7, n_steps=12)
    cfg = ImmConfig()
    params = default_params(SENSOR, cfg, init_q=0.5)
    out, history, stopped = train_imm(params, [trk], SENSOR, steps=0, cfg=cfg)
    assert out is params
    assert history == []
    assert stopped is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_divergent_training_returns_the_last_parameters_with_a_finite_loss(tmp_path):
    trk = gct_tracklet(seed=7, n_steps=12)
    cfg = ImmConfig()
    params, history, stopped = train_imm(default_params(SENSOR, cfg), [trk], SENSOR, steps=5,
                                         lr=1e6, cfg=cfg)
    assert stopped is not None and stopped["step"] == len(history)
    assert np.isfinite(ad.scalar(imm_nll(params, trk, SENSOR, cfg)[0]))
    save_imm(tmp_path / "imm.txt", params, dt=trk.dt, sensor=SENSOR)
    derived = [ln.split(":", 1)[1] for ln in (tmp_path / "imm.txt").read_text().splitlines()
               if ln.startswith("# derived") and ":" in ln]
    values = [float(tok) for ln in derived for tok in ln.replace(",", " ").split()
              if tok not in ("m", "rad")]
    assert len(values) == 4 and np.isfinite(values).all()


def test_train_reduces_nll_and_is_deterministic():
    sensor = SENSOR
    cfg_sim = GctConfig(n_steps=40)
    train = make_dataset(6, cfg_sim, sensor, seed=11)
    holdout = make_dataset(3, cfg_sim, sensor, seed=12)
    cfg = ImmConfig()
    params0 = default_params(sensor, cfg, init_q=0.08, init_omega=0.1)
    trained_a, hist_a, _ = train_imm(params0, train.tracklets, sensor, steps=60, lr=5e-3, seed=5, cfg=cfg)
    trained_b, hist_b, _ = train_imm(params0, train.tracklets, sensor, steps=60, lr=5e-3, seed=5, cfg=cfg)
    assert np.allclose(hist_a, hist_b, rtol=0, atol=0)
    assert np.array_equal(trained_a.trans_logits, trained_b.trans_logits)
    before = sum(run_imm(params0, trk, sensor, cfg)[3] for trk in holdout.tracklets)
    after = sum(run_imm(trained_a, trk, sensor, cfg)[3] for trk in holdout.tracklets)
    assert after < before


def test_mode_probabilities_sum_to_one_and_floored():
    trk = gct_tracklet(seed=8, n_steps=30)
    cfg = ImmConfig()
    params = default_params(SENSOR, cfg, init_q=0.2, init_omega=0.2)
    init = two_point_init(trk)
    graph = ImmGraph(params, init, trk.dt, SENSOR.origin, cfg)
    for t in range(2, len(trk)):
        graph.step(trk.meas[t, 0], trk.meas[t, 1])
        mu = np.array([ad.scalar(m) for m in graph.mu])
        assert abs(mu.sum() - 1.0) <= 1e-12
        assert np.all(mu >= cfg.prob_floor * (1 - 1e-9))


def test_combined_covariance_dominates_weighted_average():
    trk = gct_tracklet(seed=9, n_steps=30)
    cfg = ImmConfig()
    params = default_params(SENSOR, cfg, init_q=0.3, init_omega=0.15)
    _, _, covs, _ = run_imm(params, trk, SENSOR, cfg)
    for cov in covs[2:]:
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9 * np.trace(cov)


def test_softmax_logit_shift_invariance():
    cfg = ImmConfig()
    params = default_params(SENSOR, cfg, init_q=0.5)
    trans0 = params.transition_matrix
    params.trans_logits = params.trans_logits + 7.3  # constant shift per row
    assert np.allclose(params.transition_matrix, trans0, rtol=1e-12)
    assert np.allclose(params.transition_matrix.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_moment_matched_likelihood_mode_runs():
    trk = gct_tracklet(seed=10, n_steps=15)
    cfg = ImmConfig(likelihood="moment")
    params = default_params(SENSOR, cfg, init_q=0.5, init_omega=0.15)
    loss, _ = imm_nll(params, trk, SENSOR, cfg)
    assert np.isfinite(loss.scalar())
    # mixture and moment agree when the modes are identical
    cfg_same = ImmConfig(modes=(MODE_CV, MODE_CV), likelihood="moment")
    params_same = default_params(SENSOR, cfg_same, init_q=0.5)
    loss_m, _ = imm_nll(params_same, trk, SENSOR, cfg_same)
    cfg_mix = ImmConfig(modes=(MODE_CV, MODE_CV), likelihood="mixture")
    loss_x, _ = imm_nll(params_same, trk, SENSOR, cfg_mix)
    assert loss_m.scalar() == pytest.approx(loss_x.scalar(), rel=1e-9)


def test_recovers_transition_probability_from_known_generator():
    """Self-consistency: data produced by a known 2-mode Markov system; the
    trained transition matrix should recover p11 within +-0.1."""
    rng = np.random.default_rng(123)
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=0.5, sigma_a=0.001)
    p11_true = 0.92
    omega_true = 0.35
    tracklets = []
    for _ in range(24):
        n = 60
        truth = np.zeros((n, 4))
        pos = rng.uniform(300.0, 500.0, size=2)
        heading = rng.uniform(0, 2 * np.pi)
        speed = 8.0
        mode = 0
        for k in range(n):
            vel = speed * np.array([np.cos(heading), np.sin(heading)])
            truth[k] = np.concatenate([pos, vel])
            if rng.uniform() > p11_true:
                mode = 1 - mode
            turn = omega_true if mode == 1 else 0.0
            heading += turn
            pos = pos + vel  # dt=1, simple euler for the generator
        trk = Tracklet(dt=1.0, truth=truth, meas=np.full((n, 2), np.nan))
        tracklets.append(simulate_measurements(trk, sensor, rng))
    cfg = ImmConfig(modes=(MODE_CV, MODE_CT), train_r=False)
    params0 = default_params(sensor, cfg, init_q=0.5, init_omega=0.2, diag_prob=0.7)
    trained, history, _ = train_imm(params0, tracklets, sensor, steps=400, lr=2e-2, seed=3, cfg=cfg)
    assert len(history) == 400
    p11_learned = trained.transition_matrix[0, 0]
    assert abs(p11_learned - p11_true) <= 0.1


def test_serialization_roundtrip(tmp_path):
    cfg = ImmConfig()
    params = default_params(SENSOR, cfg, init_q=0.37, init_omega=0.21)
    params.trans_logits = np.array([[1.2, -0.3], [0.4, 0.9]])
    path = tmp_path / "model.imm"
    save_imm(path, params, dt=1.0, sensor=SENSOR)
    text = path.read_text()
    assert text.startswith("IMM1")
    assert "# derived transition probabilities:" in text
    loaded, dt, sensor = load_imm(path)
    assert dt == 1.0
    assert loaded.modes == params.modes
    assert np.allclose(loaded.trans_logits, params.trans_logits, rtol=0, atol=0)
    assert np.allclose(loaded.log_q, params.log_q)
    assert loaded.log_sigma_r == pytest.approx(params.log_sigma_r)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "GPM1\n"])
def test_load_imm_rejects_a_document_that_is_not_imm1(tmp_path, text):
    path = tmp_path / "model.imm"
    path.write_text(text)
    with pytest.raises(ValueError, match="not an IMM1 document"):
        load_imm(path)
