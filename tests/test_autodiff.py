import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import finite_difference
import tracklearn.autodiff as ad
from tracklearn.autodiff import GradientOptimizer, Var, clip_by_global_norm, inv_lower, pure
from tracklearn.ekf import gaussian_nll, init_track, joseph_update
from tracklearn.errors import NumericsError
from tracklearn.gp import negative_lml, sq_distances
from tracklearn.imm import ImmConfig, ImmGraph, default_params
from tracklearn.mkf import init_weights, lstm_step
from tracklearn.simulate import GctConfig, generate_gct, simulate_measurements
from tracklearn.statespace import SensorConfig


def test_square_derivative():
    tape = ad.make_tape()
    x = ad.var(tape, 3.0)
    y = x * x
    ad.backward(y)
    assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-12)


def test_log_derivative():
    tape = ad.make_tape()
    x = ad.var(tape, 2.0)
    y = ad.log(x)
    ad.backward(y)
    assert x.grad[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_sum_of_leaves_gradient_is_one():
    tape = ad.make_tape()
    leaves = [ad.var(tape, float(i)) for i in range(5)]
    total = leaves[0]
    for leaf in leaves[1:]:
        total = total + leaf
    ad.backward(total)
    for leaf in leaves:
        assert leaf.grad[0, 0] == pytest.approx(1.0)


def test_logdet_spd_gradient_matches_fd():
    # gradient of x -> log det S(x) for a 2x2 SPD family
    def build(theta, tape=None):
        if tape is None:
            a, b, c = theta
            s = np.array([[np.exp(a) + c * c, c], [c, np.exp(b) + c * c]])
            sign, val = np.linalg.slogdet(s)
            return val
        a = ad.var(tape, theta[0])
        b = ad.var(tape, theta[1])
        c = ad.var(tape, theta[2])
        c_sq = c * c
        s = (
            (ad.exp(a) + c_sq) * np.array([[1.0, 0.0], [0.0, 0.0]])
            + (ad.exp(b) + c_sq) * np.array([[0.0, 0.0], [0.0, 1.0]])
            + c * np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        return ad.logdet(s), (a, b, c)

    theta0 = np.array([0.3, -0.2, 0.4])
    tape = ad.make_tape()
    root, leaves = build(theta0, tape)
    ad.backward(root)
    grad = np.array([leaf.grad[0, 0] for leaf in leaves])
    fd = finite_difference(lambda th: build(th), theta0, rel_step=1e-6)
    assert np.allclose(grad, fd, rtol=1e-8, atol=1e-10)


def test_primitive_gradients_match_fd():
    unary = {
        "exp": (ad.exp, 0.7),
        "log": (ad.log, 1.3),
        "tanh": (ad.tanh, 0.4),
        "sigmoid": (ad.sigmoid, -0.6),
        "sqrt": (ad.sqrt, 2.5),
        "sin": (ad.sin, 1.1),
        "cos": (ad.cos, 0.2),
    }
    for name, (fn, x0) in unary.items():
        def scalar_fn(th, fn=fn):
            tape = ad.make_tape()
            x = ad.var(tape, th[0])
            y = fn(x)
            return y.value[0, 0]

        tape = ad.make_tape()
        x = ad.var(tape, x0)
        ad.backward(fn(x))
        fd = finite_difference(scalar_fn, np.array([x0]))
        assert x.grad[0, 0] == pytest.approx(fd[0], rel=1e-5), name


def test_binary_and_matrix_gradients_match_fd():
    rng = np.random.default_rng(5)
    a0 = rng.standard_normal((2, 3))
    b0 = rng.standard_normal((3, 2))

    def f(theta):
        a = theta[:6].reshape(2, 3)
        b = theta[6:].reshape(3, 2)
        m = a @ b
        return float(np.sum(m * m.T) + np.sum(np.arctan2(a, a + 2.0)))

    def f_tape(tape):
        a = ad.var(tape, a0)
        b = ad.var(tape, b0)
        m = a @ b
        part1 = ad.vsum(m * m.T)
        part2 = ad.vsum(ad.atan2(a, a + 2.0))
        return part1 + part2, (a, b)

    tape = ad.make_tape()
    root, (a, b) = f_tape(tape)
    ad.backward(root)
    theta0 = np.concatenate([a0.ravel(), b0.ravel()])
    fd = finite_difference(f, theta0)
    grad = np.concatenate([a.grad.ravel(), b.grad.ravel()])
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


# each arithmetic rule on its own: x, y are 2x3, s is 1x1, c is a float
ARITHMETIC = {
    "sub": lambda x, y, s: x - y,
    "neg": lambda x, y, s: -x,
    "div": lambda x, y, s: x / y,
    "div_by_1x1": lambda x, y, s: x / s,
    "1x1_mul": lambda x, y, s: s * x,
    "mul_1x1": lambda x, y, s: x * s,
    "const_sub": lambda x, y, s: 2.5 - x,
    "const_div": lambda x, y, s: 2.5 / x,
    "div_const": lambda x, y, s: x / 2.5,
    "mul_const": lambda x, y, s: x * 2.5,
    "const_mul": lambda x, y, s: 2.5 * x,
    "add_const": lambda x, y, s: x + 2.5,
    "const_add": lambda x, y, s: 2.5 + x,
    "1x1_times_const_matrix": lambda x, y, s: s * np.array([[1.0, -2.0], [0.5, 3.0]]),
    "concat_rows_unequal": lambda x, y, s: ad.concat_rows([ad.block(x, 1, 2, 0, 3), y]),
}


@pytest.mark.parametrize("name", list(ARITHMETIC))
def test_arithmetic_gradients_match_fd(name):
    fn = ARITHMETIC[name]
    rng = np.random.default_rng(9)
    x0 = rng.uniform(0.5, 2.0, (2, 3))
    y0 = rng.uniform(0.5, 2.0, (2, 3))
    s0 = np.array([[1.7]])

    def f(theta):
        out = fn(theta[:6].reshape(2, 3), theta[6:12].reshape(2, 3), theta[12:].reshape(1, 1))
        return float(np.sum(out * out))

    tape = ad.make_tape()
    leaves = [ad.var(tape, v) for v in (x0, y0, s0)]
    out = fn(*leaves)
    ad.backward(ad.vsum(out * out))
    theta0 = np.concatenate([x0.ravel(), y0.ravel(), s0.ravel()])
    grad = np.concatenate([leaf.grad.ravel() for leaf in leaves])
    assert np.allclose(grad, finite_difference(f, theta0), rtol=1e-6, atol=1e-8)


def _spd(a):
    return a @ ad.transpose(a) + 3.0 * np.eye(3)


# every backward rule on (m, r, c) stacks, m = 3: (fn, operand shapes), where
# a 2-D or smaller operand is broadcast against the stack
STACK_RULES = {
    "add": (lambda x, y: x + y, (3, 2, 3), (2, 3)),
    "sub": (lambda x, y: y - x, (3, 2, 3), (2, 3)),
    "neg": (lambda x: -x, (3, 2, 3)),
    "mul": (lambda x, y: x * y, (3, 2, 3), (2, 3)),
    "mul_by_1x1_stack": (lambda x, s: x * s, (3, 2, 3), (3, 1, 1)),
    "1x1_times_stack": (lambda s, x: s * x, (1, 1), (3, 2, 3)),
    "div": (lambda x, y: x / y, (3, 2, 3), (2, 3)),
    "div_by_stack": (lambda x, y: y / x, (3, 2, 3), (2, 3)),
    "constants": (lambda x: (2.0 - x * 0.3 + 1.5) / 0.7, (3, 2, 3)),
    "const_div": (lambda x: 1.0 / x, (3, 2, 3)),
    "const_matrix": (lambda x: x * np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]]) - np.ones(3),
                     (3, 2, 3)),
    "matmul": (lambda x, y: x @ y, (3, 2, 3), (3, 2)),
    "matmul_left": (lambda x, y: y @ x, (3, 3, 2), (2, 3)),
    "atan2": (ad.atan2, (3, 2, 3), (2, 3)),
    "cho_solve": (lambda a, r: ad.cho_solve(_spd(a), r), (3, 3, 3), (3, 3, 2)),
    "logdet": (lambda a: ad.logdet(_spd(a)), (3, 3, 3)),
    "block": (lambda x: ad.block(x, 0, 2, 1, 3), (3, 3, 3)),
    "cols": (lambda x: ad.cols(x, 1, 3), (3, 2, 3)),
    "item": (lambda x: ad.item(x, 1, 2), (3, 2, 3)),
    "concat_rows": (lambda x, y: ad.concat_rows([x, y, x]), (3, 2, 3), (3, 1, 3)),
    "reshape": (lambda x: ad.reshape(x, (3, 1, 2, 3)) * np.arange(1.0, 7.0).reshape(2, 1, 3),
                (3, 2, 3)),
    "stack_sum": (ad.stack_sum, (3, 2, 3)),
    "stack_sum_kept": (lambda x: ad.stack_sum(x, axis=-4, keepdims=True), (2, 3, 2, 3)),
    "logsumexp": (ad.logsumexp, (3, 1, 1)),
    **{name: (getattr(ad, name), (3, 2, 3)) for name in
       ("exp", "log", "tanh", "sigmoid", "sqrt", "sin", "cos", "transpose", "vsum")},
}


@pytest.mark.parametrize("name", list(STACK_RULES))
def test_stacked_gradients_match_fd(name):
    """Each rule's gradient on stacks, summed by the tape over every axis an
    operand was broadcast along, against central differences of the array path."""
    fn, *shapes = STACK_RULES[name]
    rng = np.random.default_rng(13)
    operands = [rng.uniform(0.5, 2.0, shape) for shape in shapes]
    weights = rng.uniform(-1.0, 1.0, np.shape(fn(*operands)))

    def total(out):  # a weighted sum of every entry, as a 1x1 value
        out = ad.vsum(out * weights)
        while len(out.shape) > 2:
            out = ad.stack_sum(out)
        return out

    def f(theta):
        at = np.cumsum([0] + [op.size for op in operands])
        return ad.scalar(total(fn(*(theta[a:b].reshape(op.shape)
                                    for a, b, op in zip(at, at[1:], operands)))))

    tape = ad.make_tape()
    leaves = [ad.var(tape, op) for op in operands]
    ad.backward(total(fn(*leaves)))
    grad = np.concatenate([leaf.grad.ravel() for leaf in leaves])
    fd = finite_difference(f, np.concatenate([op.ravel() for op in operands]))
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_cho_solve_gradient_matches_fd():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((3, 3))
    rhs0 = rng.standard_normal((3, 1))

    def build_spd(theta):
        m = theta[:9].reshape(3, 3)
        return m @ m.T + 3.0 * np.eye(3)

    def f(theta):
        s = build_spd(theta)
        rhs = theta[9:].reshape(3, 1)
        x = np.linalg.solve(s, rhs)
        return float(np.sum(x * x))

    tape = ad.make_tape()
    m = ad.var(tape, base)
    rhs = ad.var(tape, rhs0)
    eye3 = ad.const(tape, 3.0 * np.eye(3))
    s = m @ m.T + eye3
    x = ad.cho_solve(s, rhs)
    ad.backward(ad.vsum(x * x))
    theta0 = np.concatenate([base.ravel(), rhs0.ravel()])
    fd = finite_difference(f, theta0)
    grad = np.concatenate([m.grad.ravel(), rhs.grad.ravel()])
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


def test_slicing_concat_gradients():
    tape = ad.make_tape()
    x = ad.var(tape, np.arange(6.0).reshape(2, 3) + 1.0)
    top = ad.block(x, 0, 1, 0, 3)
    bottom = ad.block(x, 1, 2, 0, 3)
    rebuilt = ad.concat_rows([top, bottom])
    ad.backward(ad.vsum(rebuilt * rebuilt))
    assert np.allclose(x.grad, 2.0 * x.value)


def test_domain_errors():
    tape = ad.make_tape()
    x = ad.var(tape, -1.0)
    with pytest.raises(ValueError):
        ad.log(x)
    tape = ad.make_tape()
    x = ad.var(tape, -1.0)
    with pytest.raises(ValueError):
        ad.sqrt(x)
    for fn in (ad.log, ad.sqrt):
        with pytest.raises(ValueError):
            fn(np.array([[-1.0]]))
    # not positive definite, or not finite: NumericsError on both paths
    ones = [[1.0], [1.0]]
    for spd, rhs in (([[1.0, 2.0], [2.0, 1.0]], ones), ([[np.nan, 0.0], [0.0, 1.0]], ones),
                     ([[np.inf, 0.0], [0.0, 1.0]], ones), ([[1.0, 0.0], [0.0, 1.0]], [[np.nan], [1.0]])):
        spd, rhs = np.array(spd), np.array(rhs)
        tape = ad.make_tape()
        for s, r in ((spd, rhs), (ad.var(tape, spd), ad.var(tape, rhs))):
            with pytest.raises(NumericsError):
                ad.cho_solve(s, r)
            if np.isfinite(rhs).all():  # the matrix itself is bad
                with pytest.raises(NumericsError):
                    ad.logdet(s)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 160, 400])
def test_inv_lower_matches_a_triangular_solve(n):
    """inv_lower of a GP gram's Cholesky factor, either side of its 32-row
    base case and split into halves of odd and even size, against scipy's
    triangular solve of L X = I."""
    rng = np.random.default_rng(n)
    inputs = rng.standard_normal((n, 2)) * 1.5
    gram = np.exp(-0.5 * sq_distances(inputs, inputs) / 0.7) + 0.02 * np.eye(n)
    low = np.linalg.cholesky(gram)
    ref = solve_triangular(low, np.eye(n), lower=True)
    got = inv_lower(low)
    assert got.shape == (n, n)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("shape", [(5, 3, 2, 2), (7, 4, 4)])
def test_inv_lower_inverts_each_matrix_of_a_stack(shape):
    rng = np.random.default_rng(len(shape))
    m = rng.standard_normal(shape)
    low = np.linalg.cholesky(m @ m.swapaxes(-1, -2) + 0.1 * np.eye(shape[-1]))
    got = inv_lower(low)
    assert got.shape == shape
    for k in np.ndindex(shape[:-2]):
        ref = solve_triangular(low[k], np.eye(shape[-1]), lower=True)
        assert np.allclose(got[k], ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def _count_factorizations(monkeypatch) -> list:
    """The list of every matrix np.linalg.cholesky is given from now on."""
    given = []
    cholesky = np.linalg.cholesky

    def counting(a):
        given.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return given


def _assert_each_factored_once(tape, given, n_spd):
    """n_spd nodes hold a stored factor, and each was factored by one call."""
    assert len(tape.factors) == n_spd
    assert [id(a) for a in given] == [id(tape.values[i]) for i in tape.factors]


def test_negative_lml_factors_its_gram_once(monkeypatch):
    rng = np.random.default_rng(4)
    inputs, y_col = rng.standard_normal((30, 2)), rng.standard_normal((30, 1))
    given = _count_factorizations(monkeypatch)
    tape = ad.make_tape()
    s0, l2, sv = (ad.var(tape, v) for v in (1.3, 0.7, 0.05))
    loss = negative_lml(s0, l2, sv, sq_distances(inputs, inputs), y_col)
    ad.backward(loss)
    _assert_each_factored_once(tape, given, 1)  # the gram, shared by cho_solve and logdet


def test_imm_step_factors_each_innovation_covariance_once(monkeypatch):
    """The modes' S, one stacked node, feeds joseph_update's gain and
    gaussian_nll's solve and log det, and is factored once for all three."""
    sensor = SensorConfig(origin=(0.0, 0.0), sigma_r=1.5, sigma_a=0.00523)
    rng = np.random.default_rng(0)
    trk = simulate_measurements(generate_gct(GctConfig(n_steps=3), rng), sensor, rng)
    cfg = ImmConfig()
    init = init_track(trk.meas[0], trk.meas[1], sensor, trk.dt)
    graph = ImmGraph(default_params(sensor, cfg), init, trk.dt, sensor.origin, cfg, record=True)
    given = _count_factorizations(monkeypatch)
    graph.step(*trk.meas[2])
    ad.backward(graph.loss())
    _assert_each_factored_once(graph.tape, given, 1)
    assert given[0].shape == (len(cfg.modes), 2, 2)


def test_a_stored_factor_still_checks_the_next_operand():
    spd = np.array([[4.0, 1.0], [1.0, 3.0]])
    tape = ad.make_tape()
    s = ad.var(tape, spd)
    ad.logdet(s)  # stores s's factor
    with pytest.raises(NumericsError, match="non-finite operand"):
        ad.cho_solve(s, ad.var(tape, [[np.nan], [1.0]]))
    x = ad.cho_solve(s, ad.var(tape, [[1.0], [2.0]]))
    assert np.allclose(x.value, np.linalg.solve(spd, [[1.0], [2.0]]), rtol=1e-14)


def test_a_failed_factorization_is_not_stored():
    tape = ad.make_tape()
    rhs = ad.var(tape, [[1.0], [1.0]])
    indefinite = ad.var(tape, [[1.0, 2.0], [2.0, 1.0]])
    for fn in (lambda: ad.cho_solve(indefinite, rhs), lambda: ad.logdet(indefinite),
               lambda: ad.cho_solve(indefinite, rhs)):
        with pytest.raises(NumericsError, match="not positive definite"):
            fn()
    # a first call refused for its rhs leaves the matrix unfactored, not poisoned
    spd = ad.var(tape, [[2.0, 0.0], [0.0, 8.0]])
    with pytest.raises(NumericsError, match="non-finite operand"):
        ad.cho_solve(spd, ad.var(tape, [[np.inf], [1.0]]))
    assert list(tape.factors) == []
    assert ad.logdet(spd).value[0, 0] == pytest.approx(np.log(16.0), rel=1e-15)
    assert list(tape.factors) == [spd.i]


def test_mixed_tapes_rejected():
    t1, t2 = ad.make_tape(), ad.make_tape()
    x = ad.var(t1, 1.0)
    y = ad.var(t2, 1.0)
    with pytest.raises(ValueError):
        _ = x + y


def test_backward_twice_is_error():
    tape = ad.make_tape()
    x = ad.var(tape, 2.0)
    y = x * x
    ad.backward(y)
    with pytest.raises(RuntimeError):
        ad.backward(y)


def test_backward_requires_scalar_root():
    tape = ad.make_tape()
    x = ad.var(tape, np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(x + x)


def test_shared_gradients_are_not_written_in_place():
    tape = ad.make_tape()
    x = ad.var(tape, np.array([[1.0, 2.0]]))
    y = ad.var(tape, np.array([[3.0, 4.0]]))
    s = x + y  # backward hands both operands of an add the same gradient array
    d = x + x
    ad.backward(ad.vsum(s + d))
    assert np.array_equal(x.grad, [[3.0, 3.0]])
    assert np.array_equal(y.grad, [[1.0, 1.0]])
    assert np.array_equal(s.grad, [[1.0, 1.0]])
    assert np.array_equal(d.grad, [[1.0, 1.0]])


def test_gradient_of_the_wrong_shape_raises():
    tape = ad.make_tape()
    x = ad.var(tape, np.ones((2, 3)))
    # a transpose rule recorded over an untransposed value: it gives a (3, 2)
    # gradient to the (2, 3) leaf
    def transpose_back(g, vals, i, a, b, aux):
        return np.ascontiguousarray(g.T), None

    t = Var(tape, tape.push(np.ones((2, 3)), transpose_back, x.i))
    with pytest.raises(ValueError):
        ad.backward(ad.vsum(t))


def test_broadcast_axes_are_cached_for_valid_shapes_only():
    g = np.arange(24.0).reshape(2, 3, 4)
    for _ in range(2):  # computed, then looked up
        assert np.array_equal(pure._sum_to(g, (1, 4), 0), g.sum(axis=(0, 1)).reshape(1, 4))
    assert pure._SUM_AXES[(2, 3, 4), (1, 4)] == (0, 1)
    for _ in range(2):  # a shape numpy cannot have broadcast raises every time
        with pytest.raises(ValueError, match=r"gradient of shape \(2, 3, 4\) for node 0"):
            pure._sum_to(g, (2, 4), 0)
    assert ((2, 3, 4), (2, 4)) not in pure._SUM_AXES


def test_unreachable_nodes_have_zero_gradient():
    tape = ad.make_tape()
    x = ad.var(tape, 1.5)
    y = ad.var(tape, 2.5)
    _orphan = y * y  # never feeds the root
    root = x * x
    ad.backward(root)
    assert root.grad[0, 0] == pytest.approx(1.0)
    assert y.grad[0, 0] == 0.0


def test_logsumexp_matches_dense():
    tape = ad.make_tape()
    xs = [ad.var(tape, v) for v in (-3.0, 1.2, 0.5)]
    out = ad.reshape(ad.logsumexp(ad.reshape(ad.concat_rows(xs), (3, 1, 1))), (1, 1))
    expected = np.log(np.sum(np.exp([-3.0, 1.2, 0.5])))
    assert out.value[0, 0] == pytest.approx(expected, abs=1e-12)
    ad.backward(out)
    soft = np.exp([-3.0, 1.2, 0.5])
    soft /= soft.sum()
    for x, w in zip(xs, soft):
        assert x.grad[0, 0] == pytest.approx(w, rel=1e-10)


def test_optimizer_zero_lr_keeps_params():
    opt = GradientOptimizer(lr=0.0)
    params = {"w": np.array([1.0, -2.0])}
    out = opt.step(params, {"w": np.array([5.0, 5.0])})
    assert np.allclose(out["w"], params["w"])


def test_adam_matches_reference_first_step():
    opt = GradientOptimizer(lr=0.1)
    out = opt.step({"w": np.array([1.0])}, {"w": np.array([0.5])})
    # first Adam step moves by ~lr regardless of gradient magnitude
    assert out["w"][0] == pytest.approx(1.0 - 0.1 * 0.5 / (0.5 + 1e-8), rel=1e-9)


def test_clip_by_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped = clip_by_global_norm(grads, 1.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert total == pytest.approx(1.0)
    untouched = clip_by_global_norm(grads, 100.0)
    assert untouched["a"][0] == 3.0



def test_optimizer_reshapes_a_leaf_gradient_to_its_parameter():
    theta = np.array([0.3, -1.2, 2.5])
    grad = np.array([[0.7, -0.1, 4.0]])  # a (1, m) tape leaf's gradient for an (m,) parameter
    shaped, flat = GradientOptimizer(lr=0.1), GradientOptimizer(lr=0.1)
    for _ in range(3):
        a = shaped.step({"w": theta}, {"w": grad})["w"]
        b = flat.step({"w": theta}, {"w": grad.reshape(-1)})["w"]
        assert a.shape == theta.shape
        assert np.array_equal(a, b)
        theta = a


def _quadratic(blow_up_at=None, fail_at=None):
    """record and update closures for sum((w - 1)^2), plus the list of the
    params each record call saw.  The loss is inf from call blow_up_at on;
    call fail_at raises a NumericsError."""
    seen = []
    opt = GradientOptimizer(lr=0.1)

    def record(params):
        seen.append(params)
        if len(seen) - 1 == fail_at:
            raise NumericsError("matrix is not positive definite")
        leaf = ad.var(ad.make_tape(), params["w"].reshape(1, -1))
        diff = leaf - ad.const(leaf.tape, np.ones((1, params["w"].size)))
        loss = ad.vsum(diff * diff)
        if blow_up_at is not None and len(seen) - 1 >= blow_up_at:
            loss = loss * np.inf
        return loss, {"w": leaf}

    return record, opt.step, seen


def test_minimize_zero_steps_returns_its_input():
    record, update, seen = _quadratic()
    params = {"w": np.array([3.0, -2.0])}
    out, history, stopped = ad.minimize(record, params, update, 0)
    assert out is params
    assert history == [] and stopped is None and seen == []


def test_minimize_descends_and_records_every_step():
    record, update, seen = _quadratic()
    out, history, stopped = ad.minimize(record, {"w": np.array([3.0, -2.0])}, update, 20)
    assert stopped is None
    assert [step for step, _ in history] == list(range(20))
    assert history[-1][1] < history[0][1] == 13.0
    assert len(seen) == 20 and out is not seen[-1]


@pytest.mark.parametrize("k", [0, 1, 4])
def test_minimize_stops_at_a_non_finite_loss_with_the_last_finite_params(k):
    record, update, seen = _quadratic(blow_up_at=k)
    params = {"w": np.array([3.0, -2.0])}
    out, history, stopped = ad.minimize(record, params, update, 10)
    assert stopped["step"] == k == len(history)
    assert stopped["reason"] == "non-finite loss inf"
    assert out is (seen[k - 1] if k else params)


def test_minimize_reports_a_numerics_error_from_record():
    record, update, seen = _quadratic(fail_at=2)
    out, history, stopped = ad.minimize(record, {"w": np.array([3.0, -2.0])}, update, 10)
    assert stopped == {"step": 2, "reason": "matrix is not positive definite"}
    assert len(history) == 2 and out is seen[1]


def _assert_same(on_arrays, on_tape, what):
    assert type(on_arrays) is np.ndarray, what
    assert np.array_equal(on_arrays, on_tape.value), what
    for layout in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
        assert on_arrays.flags[layout] == on_tape.value.flags[layout], what


def _op_cases(rng):
    """{name: (fn, *operands)} for every ad op, on random matrices from rng;
    also returns the matrix m that spd is built from."""
    m = rng.standard_normal((3, 3))
    spd = m @ m.T + 3.0 * np.eye(3)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    pos = np.abs(b) + 0.1
    s, t = rng.standard_normal((1, 1)), rng.standard_normal((1, 1))
    cases = {
        "add": (lambda x, y: x + y, a, b),
        "sub": (lambda x, y: x - y, a, b),
        "neg": (lambda x: -x, a),
        "mul": (lambda x, y: x * y, a, b),
        "smul": (lambda x, y: x * y, s, a),
        "smul_right": (lambda x, y: x * y, a, s),
        "div": (lambda x, y: x / y, a, pos),
        "sdiv": (lambda x, y: x / y, a, s),
        "addc": (lambda x: x + 1.5, a),
        "subc": (lambda x: x - 0.7, a),
        "rsub": (lambda x: 2.0 - x, a),
        "mulc": (lambda x: x * 0.3, a),
        "divc": (lambda x: x / 0.3, a),
        "rdiv": (lambda x: 1.0 / x, pos),
        "matmul": (lambda x, y: x @ y, a, b),
        "atan2": (ad.atan2, a, b),
        "cho_solve": (ad.cho_solve, spd, b),
        "logdet": (ad.logdet, spd),
        "block": (lambda x: ad.block(x, 0, 2, 1, 3), a),
        "cols": (lambda x: ad.cols(x, 0, 2), a),
        "item": (lambda x: ad.item(x, 2, 1), a),
        "const_matrix_mul": (lambda x: x * a, s),
        "reshape": (lambda x: ad.reshape(x, x.shape[:-1] + (1, 3)), a),
        "stack_sum": (lambda x, y: ad.stack_sum(ad.reshape(x @ y, x.shape[:-1] + (1, 3))), a, b),
        "concat_rows": (lambda x, y: ad.concat_rows([x, y]), a, b),
        "logsumexp": (lambda x, y: ad.logsumexp(ad.reshape(ad.concat_rows([x, y]),
                                                           x.shape[:-2] + (2, 1, 1))), s, t),
    }
    for name in ("exp", "tanh", "sigmoid", "sin", "cos", "transpose", "vsum"):
        cases[name] = (getattr(ad, name), a)
    for name in ("log", "sqrt"):
        cases[name] = (getattr(ad, name), pos)
    return cases, m


def test_array_path_matches_tape():
    """Every op, the shared EKF update and the LSTM cell give the same bits and
    the same memory layout on plain arrays as recorded on a tape."""
    rng = np.random.default_rng(21)
    cases, m = _op_cases(rng)
    a = cases["add"][1]
    for name, (fn, *args) in cases.items():
        tape = ad.make_tape()
        _assert_same(fn(*args), fn(*(ad.var(tape, x) for x in args)), name)
    # ad.transpose copies into C order, unlike ndarray.T
    assert ad.transpose(a).flags.c_contiguous

    origin = np.array([10.0, -20.0])
    p = m @ m.T
    p = np.block([[p + np.eye(3), np.zeros((3, 1))], [np.zeros((1, 3)), np.eye(1)]]) * 4.0
    noise = np.diag([1.5**2, 0.005**2])
    # the second state sits just below the negative x axis, so its bearing
    # residual wraps
    for x, z in (([2100.0, 1900.0, 9.0, -4.0], (2830.0, 0.74)),
                 ([-2000.0, -21.0, 3.0, 1.0], (2010.0, np.pi - 1e-4))):
        x = np.array(x).reshape(4, 1)
        on_arrays = joseph_update(x, p, *z, noise, origin)
        tape = ad.make_tape()
        on_tape = joseph_update(ad.var(tape, x), ad.var(tape, p), *z, ad.var(tape, noise), origin)
        for k, (out_a, out_t) in enumerate(zip(on_arrays, on_tape)):
            _assert_same(out_a, out_t, f"joseph_update output {k}")
        _assert_same(gaussian_nll(*on_arrays[2:]), gaussian_nll(*on_tape[2:]), "gaussian_nll")

    weights = init_weights(seed=3, hidden=6, dense=5).to_dict()
    tape = ad.make_tape()
    wvars = {name: ad.var(tape, w) for name, w in weights.items()}
    state_a = (np.zeros((1, 6)), np.zeros((1, 6)))
    state_t = (ad.const(tape, state_a[0]), ad.const(tape, state_a[1]))
    for _ in range(7):
        x = rng.standard_normal((1, 2))
        out_a = lstm_step(weights, *state_a, x)
        out_t = lstm_step(wvars, *state_t, ad.const(tape, x))
        for k, (va, vt) in enumerate(zip(out_a, out_t)):
            _assert_same(va, vt, f"lstm_step output {k}")
        state_a, state_t = out_a[:2], out_t[:2]


def test_stacked_arrays_match_each_slice():
    """On stacks with a leading batch axis every op gives, row by row, the bits
    it gives on each row alone; 1x1 operands stack to one scalar per row."""
    slices = [_op_cases(np.random.default_rng(seed))[0] for seed in range(3)]
    for name, (fn, *_) in slices[0].items():
        stacked = fn(*(np.stack(ops) for ops in zip(*(case[name][1:] for case in slices))))
        alone = np.stack([fn(*case[name][1:]) for case in slices])
        assert np.array_equal(stacked, alone), name
    spd = slices[0]["logdet"][1]
    with pytest.raises(NumericsError, match="^row 1: non-finite"):
        ad.cho_solve(np.stack([spd, spd * np.nan, spd]), np.ones((3, 3, 1)))
    indefinite = np.stack([spd, -spd, spd])
    with pytest.raises(NumericsError, match="^row 1: matrix is not positive definite"):
        ad.cho_solve(indefinite, np.ones((3, 3, 1)))
    with pytest.raises(NumericsError, match="^row 1: matrix is not positive definite"):
        ad.logdet(indefinite)
