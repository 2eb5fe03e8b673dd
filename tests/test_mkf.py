import numpy as np
import pytest

import tracklearn.autodiff as ad
from tracklearn.mkf import (
    LstmWeights,
    MkfConfig,
    _tape_weights,
    init_weights,
    input_scale_from,
    load_mkf,
    lstm_step,
    mkf_loss,
    mkf_predict,
    run_mkf,
    save_mkf,
    train_mkf,
    training_sequences,
)
from tracklearn.ekf import ekf_update
from tracklearn.simulate import GctConfig, generate_gct, make_dataset, simulate_measurements
from tracklearn.statespace import Measurement, SensorConfig, StateEstimate, Tracklet

SENSOR = SensorConfig(origin=(0.0, 0.0), sigma_r=1.5, sigma_a=0.00523)


def zero_weights(hidden=4, dense=3):
    return LstmWeights(
        wx=np.zeros((2, 4 * hidden)),
        wh=np.zeros((hidden, 4 * hidden)),
        b=np.zeros((1, 4 * hidden)),
        wd=np.zeros((hidden, dense)),
        bd=np.zeros((1, dense)),
        wo=np.zeros((dense, 5)),
        bo=np.zeros((1, 5)),
    )


def zero_state(hidden):
    return np.zeros((1, hidden)), np.zeros((1, hidden))


def test_zero_weight_forward_hand_values():
    w = zero_weights()
    h, c, v, chol = lstm_step(w.to_dict(), *zero_state(4), np.array([[0.7, -0.3]]))
    # all gates sigmoid(0)=0.5, candidate tanh(0)=0; with c=0: c'=0, h'=0
    assert np.allclose(c, 0.0)
    assert np.allclose(h, 0.0)
    assert np.allclose(v, 0.0)
    assert np.allclose(chol, np.eye(2))
    # warm cell state: c' = 0.5 c, h' = 0.5 tanh(0.5 c)
    h, c, _, _ = lstm_step(w.to_dict(), np.zeros((1, 4)), np.full((1, 4), 0.8), np.zeros((1, 2)))
    assert np.allclose(c, 0.4)
    assert np.allclose(h, 0.5 * np.tanh(0.4))


def test_cholesky_diag_positive_for_random_weights():
    rng = np.random.default_rng(1)
    for seed in range(30):
        w = init_weights(seed=seed, hidden=5, dense=4)
        x = rng.standard_normal((1, 2)) * 10.0
        _, _, _, chol = lstm_step(w.to_dict(), *zero_state(5), x)
        assert chol[0, 0] > 0.0
        assert chol[1, 1] > 0.0
        assert chol[0, 1] == 0.0


def test_statefulness():
    w = init_weights(seed=4, hidden=8, dense=8)
    x = np.array([[1.0, -2.0]])
    h, c, v1, _ = lstm_step(w.to_dict(), *zero_state(8), x)
    _, _, v2, _ = lstm_step(w.to_dict(), h, c, x)
    assert not np.allclose(v1, v2)


def test_input_scale_must_be_positive_and_finite():
    for bad in (0.0, -3.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="input_scale"):
            init_weights(seed=0, hidden=4, dense=4, input_scale=bad)


def test_mkf_predict_cv_drift():
    """If the network emits the prior velocity, prediction is a CV drift."""
    w = zero_weights()
    prior = StateEstimate(mean=[10.0, 20.0, 0.0, 0.0], cov=np.eye(4))
    pred, _ = mkf_predict(prior, zero_state(4), w, dt=2.0, q_reg=0.0)
    # zero network velocity matches the zero prior velocity here
    assert np.allclose(pred.velocity, prior.velocity)
    assert np.allclose(pred.mean[:2], prior.position + 2.0 * pred.velocity)
    assert pred.t == prior.t + 1


def test_mkf_predict_covariance_identity_chol():
    w = zero_weights()
    prior = StateEstimate(mean=[0.0, 0.0, 1.0, 1.0], cov=np.diag([4.0, 4.0, 2.0, 2.0]))
    pred, _ = mkf_predict(prior, zero_state(4), w, dt=1.0, q_reg=0.0)
    # C = I: covariance picks up V' V on the velocity block only
    expected = prior.cov + np.diag([0.0, 0.0, 1.0, 1.0])
    assert np.allclose(pred.cov, expected)


def test_mkf_predict_growth_is_psd():
    rng = np.random.default_rng(5)
    w = init_weights(seed=9, hidden=6, dense=6)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        cov = m @ m.T + 2.0 * np.eye(4)
        prior = StateEstimate(mean=rng.standard_normal(4) * 10, cov=cov)
        pred, _ = mkf_predict(prior, zero_state(6), w, dt=1.0, q_reg=1e-2)
        growth = pred.cov - prior.cov
        assert np.min(np.linalg.eigvalsh(growth)) >= -1e-12
        assert np.trace(pred.cov) >= np.trace(prior.cov)


def test_loss_zero_residual_identity_chol():
    w = zero_weights()
    tape = ad.make_tape()
    wvars = _tape_weights(tape, w)
    inputs = np.zeros((6, 2))
    labels = np.zeros((6, 2))  # network emits v=0, so residuals vanish; C = I
    loss = mkf_loss(wvars, inputs, labels, hidden=4, mode="nll")
    assert loss.scalar() == pytest.approx(6 * np.log(2 * np.pi), rel=1e-12)


def test_literal_loss_zero_residual_is_diag_l1():
    w = zero_weights()
    tape = ad.make_tape()
    wvars = _tape_weights(tape, w)
    loss = mkf_loss(wvars, np.zeros((4, 2)), np.zeros((4, 2)), hidden=4, mode="literal")
    # residual term vanishes, |diag(C)|_1 = 2 per step with C = I
    assert loss.scalar() == pytest.approx(8.0, rel=1e-12)


def test_loss_gradient_matches_finite_differences():
    """20-step sequence, 50 randomly selected weights against central FD."""
    w = init_weights(seed=12, hidden=6, dense=5)
    rng = np.random.default_rng(7)
    inputs = rng.standard_normal((20, 2))
    labels = rng.standard_normal((20, 2))

    tape = ad.make_tape()
    wvars = _tape_weights(tape, w)
    loss = mkf_loss(wvars, inputs, labels, hidden=6, mode="nll")
    ad.backward(loss)
    grads = {name: leaf.grad for name, leaf in wvars.items()}

    def loss_value(weights: LstmWeights) -> float:
        t = ad.make_tape()
        wv = _tape_weights(t, weights)
        return mkf_loss(wv, inputs, labels, hidden=6, mode="nll").scalar()

    names = list(w.to_dict())
    flat_positions = []
    for name in names:
        arr = w.to_dict()[name]
        for idx in np.ndindex(arr.shape):
            flat_positions.append((name, idx))
    picked = rng.choice(len(flat_positions), size=50, replace=False)
    bad = 0
    for k in picked:
        name, idx = flat_positions[k]
        base = getattr(w, name)[idx]
        h = 1e-6 * max(1.0, abs(base))
        w_up = w.with_dict(w.to_dict())
        getattr(w_up, name)[idx] = base + h
        w_dn = w.with_dict(w.to_dict())
        getattr(w_dn, name)[idx] = base - h
        fd = (loss_value(w_up) - loss_value(w_dn)) / (2 * h)
        adg = grads[name][idx]
        rel = abs(adg - fd) / max(abs(adg), abs(fd), 1.0)
        if rel >= 1e-5:
            bad += 1
            assert rel < 1e-3
    assert bad <= 2  # >= 95% within 1e-5


def test_training_sequences_shift():
    truth = np.zeros((6, 4))
    meas = np.column_stack([np.full(6, 100.0) + np.arange(6) * 2.0, np.zeros(6)])
    trk = Tracklet(dt=1.0, truth=truth, meas=meas)
    inputs, labels = training_sequences(trk, SENSOR, scale=1.0)
    # constant range rate 2 m/s along the x axis
    assert inputs.shape == (4, 2)
    assert np.allclose(inputs[:, 0], 2.0)
    assert np.allclose(labels, inputs)  # constant series: labels equal inputs


def test_translation_invariance_of_training_loss():
    cfg_sim = GctConfig(n_steps=20)
    rng = np.random.default_rng(3)
    truth_trk = generate_gct(cfg_sim, rng)
    trk = simulate_measurements(truth_trk, SENSOR, rng)
    w = init_weights(seed=5, hidden=6, dense=5)

    def loss_of(tracklet):
        inputs, labels = training_sequences(tracklet, SENSOR, scale=1.0)
        tape = ad.make_tape()
        wvars = _tape_weights(tape, w)
        return mkf_loss(wvars, inputs, labels, hidden=6).scalar()

    # shift the whole Cartesian scene by a constant: rebuild measurements from
    # shifted positions with the sensor shifted identically, so the polar
    # returns differ but the relative geometry does not
    shift = np.array([500.0, -300.0])
    from tracklearn.statespace import polar_rows_to_cartesian, measure

    cart = polar_rows_to_cartesian(trk.meas, SENSOR)
    shifted_sensor = SensorConfig(origin=SENSOR.origin + shift, sigma_r=SENSOR.sigma_r,
                                  sigma_a=SENSOR.sigma_a)
    rows = []
    for p in cart + shift:
        rows.append(measure(p, shifted_sensor))
    shifted = Tracklet(dt=trk.dt, truth=trk.truth.copy(), meas=np.asarray(rows))

    inputs_a, labels_a = training_sequences(trk, SENSOR, scale=1.0)
    inputs_b, labels_b = training_sequences(shifted, shifted_sensor, scale=1.0)
    assert np.allclose(inputs_a, inputs_b, atol=1e-9)
    assert loss_of(trk) == pytest.approx(loss_of(shifted), rel=1e-9)


def test_train_zero_iterations_returns_input():
    trk = simulate_measurements(
        generate_gct(GctConfig(n_steps=15), np.random.default_rng(1)),
        SENSOR,
        np.random.default_rng(2),
    )
    w0 = init_weights(seed=0)
    w1, history, stopped = train_mkf(w0, [trk], SENSOR, iterations=0)
    assert w1 is w0
    assert history == []
    assert stopped is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverges on purpose
def test_divergent_training_returns_the_last_weights_with_a_finite_loss():
    trk = simulate_measurements(
        generate_gct(GctConfig(n_steps=15), np.random.default_rng(1)),
        SENSOR,
        np.random.default_rng(2),
    )
    w, history, stopped = train_mkf(init_weights(seed=0, hidden=4, dense=4), [trk], SENSOR,
                                    iterations=5, lr=1e6)
    assert stopped is not None and stopped["step"] == len(history)
    inputs, labels = training_sequences(trk, SENSOR, w.input_scale)
    loss = mkf_loss(_tape_weights(ad.make_tape(), w), inputs, labels, w.hidden)
    assert np.isfinite(ad.scalar(loss))


def test_train_on_cv_learns_velocity_average():
    """Pure CV trajectories: after training, the network's velocity prediction
    error on held-out data beats the raw finite-difference noise."""
    rng = np.random.default_rng(8)
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=1.0, sigma_a=0.002)
    vel = np.array([4.0, -2.0])

    def cv_tracklet(seed):
        local = np.random.default_rng(seed)
        start = local.uniform(200.0, 400.0, size=2)
        n = 40
        truth = np.hstack([start + np.arange(n)[:, None] * vel, np.tile(vel, (n, 1))])
        trk = Tracklet(dt=1.0, truth=truth, meas=np.full((n, 2), np.nan))
        return simulate_measurements(trk, sensor, local)

    train = [cv_tracklet(s) for s in range(12)]
    holdout = [cv_tracklet(100 + s) for s in range(4)]
    scale = input_scale_from(train, sensor)
    w0 = init_weights(seed=1, hidden=16, dense=16, input_scale=scale)
    w, history, _ = train_mkf(w0, train, sensor, iterations=600, lr=5e-3, seed=2)
    assert len(history) == 600

    errs, fd_errs = [], []
    for trk in holdout:
        inputs, _ = training_sequences(trk, sensor, w.input_scale)
        h, c = zero_state(w.hidden)
        for k, x in enumerate(inputs[:-1]):
            h, c, v, _ = lstm_step(w.to_dict(), h, c, x.reshape(1, 2))
            if k >= 3:  # allow warm-up
                errs.append(np.linalg.norm(v.ravel() * w.input_scale - vel))
                fd_errs.append(np.linalg.norm(inputs[k + 1] * w.input_scale - vel))
    assert np.sqrt(np.mean(np.square(errs))) < np.sqrt(np.mean(np.square(fd_errs)))


def test_run_mkf_long_chain_stays_psd():
    cfg_sim = GctConfig(n_steps=100)
    rng = np.random.default_rng(21)
    trk = simulate_measurements(generate_gct(cfg_sim, rng), SENSOR, rng)
    w = init_weights(seed=2, input_scale=20.0)
    pred, post, covs = run_mkf(trk, SENSOR, w)
    assert not np.any(np.isnan(post[2:]))
    for cov in covs[2:]:
        assert np.allclose(cov, cov.T, atol=1e-9 * max(1.0, np.abs(cov).max()))
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-9 * np.trace(cov)


def test_pipeline_matches_composed_calls():
    trk = simulate_measurements(
        generate_gct(GctConfig(n_steps=10), np.random.default_rng(4)),
        SENSOR,
        np.random.default_rng(5),
    )
    w = init_weights(seed=6, input_scale=10.0)
    pred_all, post_all, _ = run_mkf(trk, SENSOR, w)

    from tracklearn.ekf import init_track

    est = init_track(Measurement(0, *trk.meas[0]), Measurement(1, *trk.meas[1]), SENSOR,
                     trk.dt)
    pred, _ = mkf_predict(est, zero_state(w.hidden), w, trk.dt, MkfConfig().q_reg)
    post, _, _ = ekf_update(pred, Measurement(2, *trk.meas[2]), SENSOR)
    assert np.allclose(pred_all[2], pred.mean, rtol=0, atol=0)
    assert np.allclose(post_all[2], post.mean, rtol=0, atol=0)


def test_checkpoint_roundtrip(tmp_path):
    w = init_weights(seed=11, input_scale=17.5)
    path = tmp_path / "weights.npz"
    save_mkf(path, w, dt=0.5, sensor=SENSOR)
    loaded, dt, sensor = load_mkf(path)
    assert dt == 0.5
    assert loaded.input_scale == 17.5
    for name in ("wx", "wh", "b", "wd", "bd", "wo", "bo"):
        assert np.array_equal(getattr(loaded, name), getattr(w, name))
    assert np.allclose(sensor.origin, SENSOR.origin)
