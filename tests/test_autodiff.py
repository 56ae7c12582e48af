import numpy as np
import pytest

from rtblab.autodiff import (
    DenseLayer,
    DimensionError,
    Mlp,
    gradient_penalty,
    gumbel_softmax,
    gumbel_softmax_vjp,
    mlp_backward,
    mlp_forward,
    pack,
)
from rtblab.optim import AdamState, adam_step, make_mlp, xavier_init
from rtblab.rng import gumbel, stream


def scaled_err(a, b):
    """|a-b| scaled by max(1, |a|, |b|): relative for large values, absolute for small."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def finite_diff_grads(f, arrays, h=1e-5):
    """Central finite differences of scalar f() with respect to each array entry."""
    out = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        out.append(g)
    return out


def random_mlp(rng, dims, acts):
    net = make_mlp(dims, acts, rng)
    for lay in net.layers:
        lay.b[:] = rng.normal(0, 0.1, size=lay.b.shape)
    return net


class TestForward:
    def test_identity_layer(self):
        net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        assert np.allclose(mlp_forward(net, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_rectifier_layer(self):
        net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "relu")])
        assert np.allclose(mlp_forward(net, np.array([-1.0, 3.0])), [0.0, 3.0])

    def test_matches_straight_line_reevaluation(self):
        # duplicate-path oracle: same arithmetic written out longhand
        rng = stream(7, "fwd-oracle")
        net = random_mlp(rng, [4, 5, 3, 2], ["tanh", "relu", "identity"])
        x = rng.normal(size=(6, 4))
        y = mlp_forward(net, x)

        a = x
        a = np.tanh(a @ net.layers[0].w + net.layers[0].b)
        a = np.maximum(a @ net.layers[1].w + net.layers[1].b, 0.0)
        a = a @ net.layers[2].w + net.layers[2].b
        assert np.max(np.abs(y - a)) <= 1e-12

    def test_dim_mismatch_raises(self):
        net = Mlp([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        with pytest.raises(DimensionError):
            mlp_forward(net, np.ones(3))


class TestBackward:
    def test_linear_map_gradients(self):
        # f(x) = w . x, seed 1: df/dw = x, df/dx = w
        w = np.array([[2.0], [-1.5], [0.5]])
        net = Mlp([DenseLayer(w, np.zeros(1), "identity")])
        x = np.array([1.0, 2.0, 3.0])
        y, trace = mlp_forward(net, x, record=True)
        grads, dx = mlp_backward(trace, np.ones(1))
        assert np.allclose(grads, [*x, 1.0])   # [dw; db]
        assert np.allclose(dx, w.ravel())

    def test_zero_seed(self):
        rng = stream(8, "zero-seed")
        net = random_mlp(rng, [3, 4, 2], ["tanh", "identity"])
        y, trace = mlp_forward(net, rng.normal(size=3), record=True)
        grads, dx = mlp_backward(trace, np.zeros(2))
        assert grads.shape == net.params.shape
        assert np.all(grads == 0.0)
        assert np.all(dx == 0.0)

    def test_missing_trace_raises(self):
        with pytest.raises(ValueError):
            mlp_backward(None, np.ones(1))

    def test_finite_difference_oracle(self):
        rng = stream(9, "fd-oracle")
        net = random_mlp(rng, [4, 6, 1], ["tanh", "identity"])
        x = rng.uniform(-2, 2, size=(3, 4))
        seed = rng.normal(size=(3, 1))

        def loss():
            return float(np.sum(seed * mlp_forward(net, x)))

        fd = finite_diff_grads(loss, [net.params])[0]
        _, trace = mlp_forward(net, x, record=True)
        grads, _ = mlp_backward(trace, seed)
        assert np.max(scaled_err(grads, fd)) < 1e-6


class TestGradientPenalty:
    def test_unit_norm_linear_critic_is_free(self):
        v = np.array([0.6, 0.8])  # ||v|| = 1
        net = Mlp([DenseLayer(v[:, None], np.zeros(1), "identity")])
        _, grads, norms = gradient_penalty(net, np.array([0.3, -1.2]))
        assert abs(norms[0] - 1.0) < 1e-12
        assert np.max(np.abs(grads)) < 1e-12

    def test_linear_1d_closed_form(self):
        # c(x) = 2x: penalty (2-1)^2 = 1, d(penalty)/dv = 2(||v||-1) = 2
        net = Mlp([DenseLayer(np.array([[2.0]]), np.zeros(1), "identity")])
        penalty, grads, norms = gradient_penalty(net, np.array([[0.7]]))
        assert abs(penalty - 1.0) < 1e-12
        assert abs(norms[0] - 2.0) < 1e-12
        assert abs(grads[0] - 2.0) < 1e-12   # d/dw; grads[1] is d/db

    def test_nested_finite_difference_oracle(self):
        rng = stream(10, "gp-fd")
        net = random_mlp(rng, [3, 5, 1], ["tanh", "identity"])
        x = rng.uniform(-1.5, 1.5, size=(4, 3))

        def penalty():
            p, _, _ = gradient_penalty(net, x)
            return p

        fd = finite_diff_grads(penalty, [net.params], h=1e-5)[0]
        _, grads, _ = gradient_penalty(net, x)
        assert np.max(scaled_err(grads, fd)) < 1e-4

    def test_non_scalar_critic_raises(self):
        rng = stream(11, "gp-err")
        net = random_mlp(rng, [3, 4, 2], ["tanh", "identity"])
        with pytest.raises(DimensionError):
            gradient_penalty(net, rng.normal(size=(2, 3)))


class TestReductionsAndOuterProducts:
    """The critic step's shortcuts give the bits of the plain numpy forms."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (7, 1), (64, 1), (385,), (1024, 1),
                                       (6144, 1), (300, 13)])
    def test_sum_over_count_is_bitwise_mean(self, dtype, shape):
        rng = stream(140, "mean", *shape)
        for scale in (1e-3, 1.0, 1e4):
            x = (scale * rng.standard_normal(shape) + scale).astype(dtype)
            got, want = x.sum() / x.size, x.mean()
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,fan_in", [(1, 1), (5, 3), (64, 32), (1024, 128), (768, 9)])
    def test_broadcast_outer_product_is_bitwise_the_matmul(self, dtype, n, fan_in):
        rng = stream(141, "outer", n, fan_in)
        d = rng.standard_normal((n, 1)).astype(dtype)
        w = rng.standard_normal((fan_in, 1)).astype(dtype)
        got = d * w.T
        assert got.dtype == dtype
        assert np.array_equal(got, d @ w.T)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_output_input_gradient_is_the_matmul(self, dtype):
        rng = stream(142, "one-output")
        net = Mlp([DenseLayer(rng.standard_normal((6, 1)).astype(dtype),
                              np.zeros(1, dtype), "identity")])
        _, trace = mlp_forward(net, rng.standard_normal((9, 6)), record=True)
        seed = rng.standard_normal((9, 1)).astype(dtype)
        _, dinput = mlp_backward(trace, seed)
        assert np.array_equal(dinput, seed @ net.layers[0].w.T)


class TestGumbelSoftmax:
    def test_zero_noise_unit_temperature_is_softmax(self):
        logits = np.array([0.3, -0.2, 1.1, 0.0])
        y = gumbel_softmax(logits, 1.0, np.zeros(4))
        e = np.exp(logits - logits.max())
        assert np.allclose(y, e / e.sum(), atol=1e-12)

    def test_small_temperature_is_argmax(self):
        rng = stream(12, "gs-argmax")
        logits = rng.normal(size=6)
        g = gumbel(rng, 6)
        y = gumbel_softmax(logits, 1e-6, g)
        assert y.max() > 1.0 - 1e-6
        assert np.argmax(y) == np.argmax(logits + g)

    def test_simplex_invariant(self):
        rng = stream(13, "gs-simplex")
        for _ in range(50):
            logits = rng.normal(scale=3, size=(8, 5))
            y = gumbel_softmax(logits, float(rng.uniform(0.1, 2.0)), gumbel(rng, (8, 5)))
            assert np.all(y >= 0.0)
            assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12

    def test_vjp_matches_finite_differences(self):
        rng = stream(15, "gs-vjp")
        logits = rng.normal(size=(3, 5))
        noise = gumbel(rng, (3, 5))
        seed = rng.normal(size=(3, 5))
        tau = 0.667

        def loss():
            return float(np.sum(seed * gumbel_softmax(logits, tau, noise)))

        fd = finite_diff_grads(loss, [logits])[0]
        y = gumbel_softmax(logits, tau, noise)
        g = gumbel_softmax_vjp(y, seed, tau)
        assert np.max(scaled_err(g, fd)) < 1e-6

    @staticmethod
    def random_blocks(rng):
        """Block starts over random widths 1-9, with at least one width-1 block."""
        widths = rng.integers(1, 10, size=int(rng.integers(1, 8)))
        widths[rng.integers(widths.size)] = 1
        return tuple(int(s) for s in np.cumsum(widths) - widths), int(widths.sum())

    def test_segmented_matches_per_block(self):
        rng = stream(19, "gs-seg")
        for _ in range(50):
            starts, width = self.random_blocks(rng)
            tau = float(rng.uniform(0.1, 2.0))
            logits = rng.normal(scale=3, size=(7, width))
            noise = gumbel(rng, (7, width))
            seed = rng.normal(size=(7, width))
            y = gumbel_softmax(logits, tau, noise, starts)
            g = gumbel_softmax_vjp(y, seed, tau, starts)
            for lo, hi in zip(starts, (*starts[1:], width)):
                u = (logits[:, lo:hi] + noise[:, lo:hi]) / tau
                e = np.exp(u - u.max(axis=1, keepdims=True))
                yb = e / e.sum(axis=1, keepdims=True)
                sb = seed[:, lo:hi]
                gb = yb * (sb - (sb * yb).sum(axis=1, keepdims=True)) / tau
                assert np.max(np.abs(y[:, lo:hi] - yb)) <= 1e-15
                assert np.max(scaled_err(g[:, lo:hi], gb)) <= 1e-14

    def test_segmented_vjp_matches_finite_differences(self):
        rng = stream(20, "gs-seg-vjp")
        starts, width = (0, 3, 4, 8), 10  # widths 3, 1, 4, 2
        logits = rng.normal(size=(3, width))
        noise = gumbel(rng, (3, width))
        seed = rng.normal(size=(3, width))
        tau = 0.667

        def loss():
            return float(np.sum(seed * gumbel_softmax(logits, tau, noise, starts)))

        fd = finite_diff_grads(loss, [logits])[0]
        y = gumbel_softmax(logits, tau, noise, starts)
        g = gumbel_softmax_vjp(y, seed, tau, starts)
        assert np.max(scaled_err(g, fd)) < 1e-6


def per_array_adam(arrays, grads, ms, vs, t, lr, weight_decay):
    """Adam written array by array: the reference for the flat update."""
    c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for p, g, m, v in zip(arrays, grads, ms, vs):
        if weight_decay:
            g = g + weight_decay * p
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = np.array([1.0, -2.0])
        state = AdamState(p)
        adam_step(p, np.zeros(2), state, lr=0.1)
        assert np.allclose(p, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = np.array([0.0, 0.0])
        state = AdamState(p)
        adam_step(p, np.array([3.0, -0.25]), state, lr=0.1)
        # first-step bias correction gives m_hat/sqrt(v_hat) = sign(g) up to eps
        assert np.allclose(p, [-0.1, 0.1], atol=1e-6)

    def test_quadratic_descent(self):
        # 50 steps on f(w) = (w - 3)^2 from 0
        p = np.array([0.0])
        state = AdamState(p)
        losses = []
        for _ in range(50):
            losses.append(float((p[0] - 3.0) ** 2))
            adam_step(p, 2.0 * (p - 3.0), state, lr=0.1)
        assert abs(p[0] - 3.0) < 0.5
        assert losses[-1] < losses[0]

    def test_weight_decay_shrinks_params(self):
        p = np.array([5.0])
        state = AdamState(p)
        adam_step(p, np.zeros(1), state, lr=0.1, weight_decay=0.01)
        assert p[0] < 5.0

    def test_shape_mismatch_raises(self):
        p = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(2), AdamState(p), lr=0.1)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_flat_step_equals_per_array_loop_bitwise(self, weight_decay):
        rng = stream(18, "adam-flat", weight_decay)
        for case in range(20):
            shapes = [tuple(rng.integers(1, 6, size=rng.integers(1, 3)))
                      for _ in range(rng.integers(1, 6))]
            flat, views = pack([rng.normal(size=s) for s in shapes])
            ref = [v.copy() for v in views]
            ms = [np.zeros_like(v) for v in views]
            vs = [np.zeros_like(v) for v in views]
            state = AdamState(flat)
            for t in range(1, 6):
                grads = [rng.normal(size=s) for s in shapes]
                adam_step(flat, pack(grads)[0], state, lr=0.05,
                          weight_decay=weight_decay)
                per_array_adam(ref, grads, ms, vs, t, 0.05, weight_decay)
                for v, r in zip(views, ref):
                    assert np.array_equal(v, r)


def formula_adam(p, g, m, v, t, lr, weight_decay):
    """Adam as one expression per moment, with fresh temporaries: the
    reference for the in-place step."""
    c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    if weight_decay:
        g = g + weight_decay * p
    m *= 0.9
    m += (1.0 - 0.9) * g
    v *= 0.999
    v += (1.0 - 0.999) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestInPlaceAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_step_is_bitwise_the_formula(self, dtype, weight_decay):
        rng = stream(22, "adam-in-place", weight_decay)
        p = (rng.normal(size=300) * 3.0).astype(dtype)
        ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        state = AdamState(p)
        for t in range(1, 30):
            # some gradients tiny or zero, so eps matters in some entries
            g = (rng.normal(size=300) * 10.0 ** rng.integers(-9, 2, size=300)).astype(dtype)
            g[::17] = 0.0
            kept = g.copy()
            adam_step(p, g, state, lr=0.05, weight_decay=weight_decay)
            formula_adam(ref, g, m, v, t, 0.05, weight_decay)
            assert np.array_equal(g, kept)          # the gradient is left alone
            assert p.dtype == dtype and state.m.dtype == dtype
            assert np.array_equal(p, ref)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


class TestFlatLayout:
    def test_layers_view_params_in_order(self):
        net = random_mlp(stream(19, "layout"), [3, 4, 2], ["tanh", "identity"])
        assert net.params.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        for lay in net.layers:
            assert np.shares_memory(lay.w, net.params)
            assert np.shares_memory(lay.b, net.params)
        want = np.concatenate([a.ravel() for lay in net.layers for a in (lay.w, lay.b)])
        assert np.array_equal(net.params, want)

    def test_writing_params_changes_forward(self):
        rng = stream(20, "layout-write")
        net = random_mlp(rng, [3, 4, 2], ["tanh", "identity"])
        x = rng.normal(size=(5, 3))
        before = mlp_forward(net, x)
        net.params[-1] += 1.0   # the last output bias
        after = mlp_forward(net, x)
        assert np.array_equal(after[:, 0], before[:, 0])
        assert np.allclose(after[:, 1], before[:, 1] + 1.0)
        net.params[:] = 0.0
        assert np.all(mlp_forward(net, x) == 0.0)

    def test_float32_layers_pack_and_run_in_float32(self):
        net = make_mlp([3, 4, 1], ["tanh", "identity"], stream(23, "f32"), np.float32)
        assert net.params.dtype == np.float32 and net.copy().params.dtype == np.float32
        assert all(np.shares_memory(lay.w, net.params) for lay in net.layers)
        out, trace = mlp_forward(net, np.ones((2, 3)), record=True)
        grads, dx = mlp_backward(trace, np.ones((2, 1)))
        _, p_grads, _ = gradient_penalty(net, np.ones((2, 3)))
        assert out.dtype == grads.dtype == dx.dtype == p_grads.dtype == np.float32
        # one float64 layer makes the whole vector float64
        mixed = Mlp([net.layers[0], DenseLayer(np.ones((4, 1)), np.zeros(1))])
        assert mixed.params.dtype == np.float64

    def test_copy_shares_no_memory(self):
        net = random_mlp(stream(21, "layout-copy"), [3, 4, 2], ["relu", "identity"])
        dup = net.copy()
        assert np.array_equal(dup.params, net.params)
        assert not np.shares_memory(dup.params, net.params)
        dup.params[:] = 0.0
        assert np.any(net.params != 0.0)
        assert all(np.shares_memory(lay.w, dup.params) for lay in dup.layers)


class TestXavier:
    def test_bound(self):
        rng = stream(16, "xavier")
        w = xavier_init((4, 2), rng)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / 6.0))

    def test_seed_determinism(self):
        a = xavier_init((8, 8), stream(17, "xavier"))
        b = xavier_init((8, 8), stream(17, "xavier"))
        assert np.array_equal(a, b)

    def test_variance_monte_carlo(self):
        # Var(U(-r, r)) = r^2 / 3 = 2 / (fan_in + fan_out)
        rng = stream(18, "xavier-var")
        w = xavier_init((100, 100), rng)
        target = 2.0 / 200.0
        assert abs(w.var() - target) / target < 0.05

    def test_non_2d_raises(self):
        with pytest.raises(ValueError):
            xavier_init((4,), stream(1, "x"))

    def test_float32_draws_are_the_float64_draws_rounded(self):
        a = xavier_init((8, 5), stream(17, "xavier"), np.float32)
        b = xavier_init((8, 5), stream(17, "xavier"))
        assert a.dtype == np.float32
        assert np.array_equal(a, b.astype(np.float32))


class ZeroExponential:
    """A generator whose exponential draws are all exactly 0."""

    def standard_exponential(self, shape, dtype=np.float64):
        return np.zeros(shape, dtype)


class TestGumbel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_exponential_draws_stay_finite(self, dtype):
        noise = gumbel(ZeroExponential(), (4, 3), dtype)
        assert noise.dtype == dtype
        assert np.all(noise == -np.log(np.finfo(dtype).tiny))
        y = gumbel_softmax(np.zeros((4, 3), dtype), 0.667, noise, (0, 1))
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_moments_monte_carlo(self, dtype):
        # Gumbel(0, 1): mean is Euler's gamma, variance pi^2 / 6
        g = gumbel(stream(24, "gumbel-mc"), 200_000, dtype).astype(np.float64)
        assert abs(g.mean() - np.euler_gamma) < 0.01
        assert abs(g.var() - np.pi ** 2 / 6) < 0.02


def test_stream_split_independence():
    a = stream(5, "alpha").normal(size=4)
    b = stream(5, "beta").normal(size=4)
    a2 = stream(5, "alpha").normal(size=4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)
