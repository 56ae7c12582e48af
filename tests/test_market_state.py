import numpy as np
import pytest

from rtblab import market_state
from rtblab.autodiff import (
    DenseLayer,
    Mlp,
    gradient_penalty,
    gumbel_softmax_vjp,
    mlp_backward,
    mlp_forward,
)
from rtblab.errors import ConfigError
from rtblab.market_state import (
    EmpiricalSampler,
    Generator,
    GeneratorSampler,
    UniformSampler,
    WganConfig,
    build_critic,
    build_generator,
    critic_loss,
    generator_forward,
    generator_loss,
    train_market_state_model,
)
from rtblab.data import PackedRequests
from rtblab.optim import make_mlp
from rtblab.rng import gumbel, stream
from rtblab.synth import SynthSpec, generate_synthetic_market, synth_feature_dict

TOY_CFG = WganConfig(
    batch_size=128,
    lr=1e-3,
    z_dim=8,
    gen_hidden=(16,),
    critic_hidden=(16,),
    max_iters=50,
)


def toy_fdict():
    return synth_feature_dict((2, 3))


def as_float64(net):
    """A float64 copy of net: finite-difference oracles need float64."""
    return Mlp([DenseLayer(lay.w.astype(np.float64), lay.b.astype(np.float64), lay.act)
                for lay in net.layers])


class FixedUniform:
    """Interpolation weights t given in advance, in the dtype asked for."""

    def __init__(self, t):
        self.t = np.asarray(t, dtype=np.float64)

    def random(self, shape, dtype=np.float64):
        return self.t[: shape[0]].reshape(shape).astype(dtype)


def linear_critic(v):
    v = np.asarray(v, dtype=np.float64)
    return Mlp([DenseLayer(v[:, None], np.zeros(1), "identity")])


def unfused_critic_loss(critic, real, fake, gp_lambda, rng):
    """critic_loss as separate passes: real, fake, then the penalty."""
    n_r, n_f = real.shape[0], fake.shape[0]
    s_real, tr_real = mlp_forward(critic, real, record=True)
    s_fake, tr_fake = mlp_forward(critic, fake, record=True)
    g_fake, _ = mlp_backward(tr_fake, np.full((n_f, 1), 1.0 / n_f))
    g_real, _ = mlp_backward(tr_real, np.full((n_r, 1), -1.0 / n_r))
    grads = g_fake + g_real
    penalty = 0.0
    if gp_lambda > 0.0:
        m = min(n_r, n_f)
        t = rng.random((m, 1))
        penalty, p_grads, _ = gradient_penalty(critic, t * real[:m] + (1.0 - t) * fake[:m])
        grads = grads + gp_lambda * p_grads
    loss = float(s_fake.mean() - s_real.mean()) + gp_lambda * penalty
    return loss, grads


def unit_rows(width, hot_sets):
    out = np.zeros((len(hot_sets), width))
    for i, hots in enumerate(hot_sets):
        out[i, list(hots)] = 1.0
    return out


class TestGeneratorSampling:
    def test_hard_mode_one_hot_per_field(self):
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(50, "gen"))
        rng = stream(50, "draw")
        z = rng.standard_normal((40, gen.z_dim))
        noise = gumbel(rng, (40, fdict.width), gen.dtype)
        soft = generator_forward(gen, z, TOY_CFG.tau, noise)
        x = np.zeros_like(soft)
        for lo, hi in gen.slices:
            x[np.arange(40), lo + np.argmax(soft[:, lo:hi], axis=1)] = 1.0
        for lo, hi in gen.slices:
            block = x[:, lo:hi]
            assert np.all(block.sum(axis=1) == 1.0)
            assert set(np.unique(block)) <= {0.0, 1.0}
        # the sampler draws the same z and noise from its stream
        idx = GeneratorSampler(gen, TOY_CFG.tau, stream(50, "draw")).sample_indices(40)
        assert np.array_equal(np.nonzero(x)[1].reshape(40, -1), idx)

    def test_soft_mode_simplex_blocks(self):
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(51, "gen"))
        rng = stream(51, "draw")
        z = rng.standard_normal((25, gen.z_dim))
        noise = gumbel(rng, (25, fdict.width))
        # the bound is float64's; the float32 net is held to float32's
        gen64 = Generator(as_float64(gen.net), gen.slices, gen.z_dim)
        for net, tol in ((gen64, 1e-12), (gen, 8 * np.finfo(np.float32).eps)):
            x = generator_forward(net, z, TOY_CFG.tau, noise)
            assert x.dtype == net.dtype
            for lo, hi in gen.slices:
                assert np.max(np.abs(x[:, lo:hi].sum(axis=1) - 1.0)) <= tol
                assert np.all(x[:, lo:hi] >= 0.0)

    def test_gumbel_max_monte_carlo(self):
        # uniform categorical over 4 (zero logits), hard argmax of the relaxed draw
        fdict = synth_feature_dict((3,))
        gen = build_generator(fdict, TOY_CFG, stream(14, "gen"))
        head = gen.net.layers[-1]
        head.w[:] = 0.0
        head.b[:] = 0.0
        n = 100_000
        idx = GeneratorSampler(gen, 0.5, stream(14, "gs-mc")).sample_indices(n)
        freqs = np.bincount(idx[:, 0], minlength=4) / n
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_fixed_seed_reproducible(self):
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(52, "gen"))
        a = GeneratorSampler(gen, 0.667, stream(52, "s")).sample_indices(10)
        b = GeneratorSampler(gen, 0.667, stream(52, "s")).sample_indices(10)
        assert np.array_equal(a, b)

    def test_wrong_noise_dim_raises(self):
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(53, "gen"))
        with pytest.raises(ConfigError):
            generator_forward(gen, np.zeros((2, gen.z_dim + 1)), 0.667,
                              np.zeros((2, fdict.width)))


class TestCriticLoss:
    def test_identical_batches_unit_norm_linear_critic(self):
        v = np.zeros(4)
        v[0], v[1] = 0.6, 0.8  # unit norm
        critic = linear_critic(v)
        batch = unit_rows(4, [{0}, {1}, {0, 1}])
        loss, grads, parts = critic_loss(critic, batch, batch, 10.0, stream(54, "gp"))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert parts["penalty"] == pytest.approx(0.0, abs=1e-14)

    def test_lambda_zero_linear_closed_form(self):
        rng = stream(55, "cl")
        v = rng.normal(size=5)
        critic = linear_critic(v)
        real = rng.random((8, 5))
        fake = rng.random((6, 5))
        loss, _, _ = critic_loss(critic, real, fake, 0.0, rng)
        expected = float(v @ (fake.mean(axis=0) - real.mean(axis=0)))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_recomputation_oracle(self):
        # independent scalar recomputation from scores and penalty values
        rng = stream(56, "cl")
        critic = make_mlp([5, 7, 1], ["tanh", "identity"], rng)
        real = rng.random((9, 5))
        fake = rng.random((9, 5))
        lam = 10.0
        loss, _, parts = critic_loss(critic, real, fake, lam, stream(56, "gp"))
        s_real = mlp_forward(critic, real).mean()
        s_fake = mlp_forward(critic, fake).mean()
        recomputed = float(s_fake - s_real + lam * parts["penalty"])
        assert abs(loss - recomputed) <= 1e-10

    def test_critic_gradients_match_finite_differences(self):
        rng = stream(57, "cl-fd")
        critic = make_mlp([4, 5, 1], ["tanh", "identity"], rng)
        real = rng.random((6, 4))
        fake = rng.random((6, 4))
        gp_rng_key = 99

        def loss():
            v, _, _ = critic_loss(critic, real, fake, 10.0, stream(gp_rng_key, "gp"))
            return v

        _, grads, _ = critic_loss(critic, real, fake, 10.0, stream(gp_rng_key, "gp"))
        h = 1e-5
        flat = critic.params
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grads[i] - fd) / max(1.0, abs(fd)) < 1e-4


    def test_relu_critic_gradients_match_finite_differences(self):
        # real, fake and interpolates all clear the rectifier kinks, so
        # central differences stay on one smooth piece
        rng = stream(70, "cl-relu-fd")
        critic = make_mlp([4, 6, 5, 1], ["relu", "relu", "identity"], rng)
        for lay in critic.layers:
            lay.b[:] = rng.normal(0, 0.2, size=lay.b.shape)
        gp_rng_key = 98
        for _ in range(200):
            real = rng.uniform(-2, 2, size=(5, 4))
            fake = rng.uniform(-2, 2, size=(5, 4))
            t = stream(gp_rng_key, "gp").random((5, 1))
            x = np.concatenate([real, fake, t * real + (1.0 - t) * fake])
            _, trace = mlp_forward(critic, x, record=True)
            if all(np.min(np.abs(z)) > 1e-3 for z in trace.zs[:-1]):
                break
        else:
            raise AssertionError("could not find kink-free batches")

        def loss():
            v, _, _ = critic_loss(critic, real, fake, 10.0, stream(gp_rng_key, "gp"))
            return v

        _, grads, parts = critic_loss(critic, real, fake, 10.0, stream(gp_rng_key, "gp"))
        assert parts["penalty"] > 0.0
        h = 1e-5
        flat = critic.params
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grads[i] - fd) / max(1.0, abs(fd)) < 1e-4

    @pytest.mark.parametrize("acts", [("relu", "relu"), ("tanh", "tanh"), ("relu", "tanh")])
    @pytest.mark.parametrize("n_real, n_fake", [(9, 6), (5, 11), (8, 8)])
    @pytest.mark.parametrize("gp_lambda", [0.0, 10.0])
    def test_fused_step_matches_unfused_composition(self, acts, n_real, n_fake, gp_lambda):
        rng = stream(71, "cl-fused", *acts, n_real, n_fake)
        critic = make_mlp([6, 7, 5, 1], [*acts, "identity"], rng)
        for lay in critic.layers:
            lay.b[:] = rng.normal(0, 0.2, size=lay.b.shape)
        real = rng.uniform(-2, 2, size=(n_real, 6))
        fake = rng.uniform(-2, 2, size=(n_fake, 6))
        loss, grads, parts = critic_loss(critic, real, fake, gp_lambda, stream(72, "gp"))
        want_loss, want_grads = unfused_critic_loss(critic, real, fake, gp_lambda,
                                                    stream(72, "gp"))
        assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        # relative to the largest gradient entry: the output bias's
        # Wasserstein gradient is a sum that cancels to rounding noise
        scale = np.max(np.abs(want_grads))
        assert grads.shape == want_grads.shape == critic.params.shape
        assert np.max(np.abs(grads - want_grads)) <= 1e-12 * scale
        if gp_lambda == 0.0:
            assert parts["penalty"] == 0.0


class TestGeneratorLoss:
    def test_constant_critic_zero_gradient(self):
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(58, "gen"))
        critic = linear_critic(np.zeros(fdict.width))
        critic.layers[0].b[:] = 3.0
        rng = stream(58, "z")
        z = rng.standard_normal((16, gen.z_dim))
        noise = gumbel(rng, (16, fdict.width))
        loss, grads = generator_loss(gen, critic, z, 0.667, noise)
        assert loss == pytest.approx(-3.0, abs=1e-12)
        assert np.max(np.abs(grads)) < 1e-15

    def test_rewarded_feature_logit_pushed_up(self):
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(59, "gen"))
        j = 1  # feature the critic pays for
        v = np.zeros(fdict.width)
        v[j] = 2.0
        critic = linear_critic(v)
        rng = stream(59, "z")
        z = rng.standard_normal((64, gen.z_dim))
        noise = gumbel(rng, (64, fdict.width))
        _, grads = generator_loss(gen, critic, z, 0.667, noise)
        head_bias_grad = grads[-fdict.width:]   # the last layer's b closes the layout
        assert head_bias_grad[j] < 0.0  # descent raises that logit

    def test_gradient_matches_finite_differences(self):
        fdict = toy_fdict()
        cfg = WganConfig(batch_size=4, z_dim=3, gen_hidden=(4,),
                         critic_hidden=(4,), activation="tanh")
        gen = build_generator(fdict, cfg, stream(60, "gen"))
        gen = Generator(as_float64(gen.net), gen.slices, gen.z_dim)
        critic = as_float64(build_critic(fdict.width, cfg, stream(60, "crit")))
        rng = stream(60, "z")
        z = rng.standard_normal((3, 3))
        noise = gumbel(rng, (3, fdict.width))

        def loss():
            v, _ = generator_loss(gen, critic, z, 0.667, noise)
            return v

        _, grads = generator_loss(gen, critic, z, 0.667, noise)
        h = 1e-6
        flat = gen.net.params
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(grads[i] - fd) / max(1.0, abs(fd)) < 1e-4

    def test_descent_on_frozen_linear_critic(self):
        # one plain-GD step with small lr strictly decreases the loss
        fdict = toy_fdict()
        gen = build_generator(fdict, TOY_CFG, stream(61, "gen"))
        rng = stream(61, "z")
        v = rng.normal(size=fdict.width)
        critic = linear_critic(v)
        z = rng.standard_normal((32, gen.z_dim))
        noise = gumbel(rng, (32, fdict.width))
        before, grads = generator_loss(gen, critic, z, 0.667, noise)
        gen.net.params -= 1e-3 * grads
        after, _ = generator_loss(gen, critic, z, 0.667, noise)
        assert after < before


class TestFloat32:
    @pytest.mark.parametrize("shape", [
        ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 64, (32,)),   # learn-market
        ((3, 4), 256, (64, 64, 32)),                                  # criterion 4
    ])
    def test_critic_step_gradient_is_near_float64(self, shape):
        dims, batch, hidden = shape
        fdict = synth_feature_dict(dims)
        cfg = WganConfig(batch_size=batch, z_dim=8, gen_hidden=hidden, critic_hidden=hidden)
        gen = build_generator(fdict, cfg, stream(70, "gen"))
        critic = build_critic(fdict.width, cfg, stream(70, "crit"))
        assert gen.dtype == critic.params.dtype == np.float32
        rng = stream(70, "data")
        idx = np.stack([rng.integers(lo, hi, size=batch) for lo, hi in gen.slices], axis=1)
        real = PackedRequests(idx, fdict.width).dense(np.float32)
        fake = generator_forward(gen, rng.standard_normal((batch, cfg.z_dim)), cfg.tau,
                                 gumbel(rng, (batch, fdict.width), np.float32))
        t = rng.integers(0, 1024, size=batch) / 1024     # exact in float32
        loss, grads, _ = critic_loss(critic, real, fake, 10.0, FixedUniform(t))
        want_loss, want, _ = critic_loss(as_float64(critic), real.astype(np.float64),
                                         fake.astype(np.float64), 10.0, FixedUniform(t))
        assert grads.dtype == np.float32
        scale = np.max(np.abs(want))
        assert np.max(np.abs(grads - want)) <= 1e-5 * scale
        assert abs(loss - want_loss) <= 1e-5 * max(1.0, abs(want_loss))

    def test_training_keeps_float32_nets(self):
        fdict = toy_fdict()
        reqs = UniformSampler(fdict, stream(71, "u")).sample_batch(300)
        cfg = WganConfig(batch_size=32, lr=1e-3, z_dim=4, gen_hidden=(8,),
                         critic_hidden=(8,), max_iters=3)
        gen, critic, diag = train_market_state_model(reqs, reqs, fdict, cfg,
                                                     stream(71, "train"))
        assert gen.net.params.dtype == critic.params.dtype == np.float32
        assert all(lay.w.dtype == np.float32 for lay in gen.net.layers + critic.layers)
        assert np.all(np.isfinite(diag.gaps)) and diag.iterations == 3


class TestTraining:
    def test_degenerate_single_atom_market(self):
        fdict = synth_feature_dict((1, 1))
        req = PackedRequests(np.array([[fdict.offset("f0"), fdict.offset("f1")]]),
                             fdict.width)
        data = req.rows(np.zeros(512, dtype=np.int64))
        cfg = WganConfig(batch_size=128, lr=1e-3, z_dim=8, gen_hidden=(16,),
                         critic_hidden=(16,), max_iters=600, stop_window=50)
        gen, critic, diag = train_market_state_model(
            data, data, fdict, cfg, stream(62, "train")
        )
        sampler = GeneratorSampler(gen, cfg.tau, stream(62, "draw"))
        idx = sampler.sample_indices(1000)
        hit = np.all(idx == req.indices, axis=1).mean()
        assert hit > 0.99

    def test_fixed_seed_bit_identical_training(self):
        market = generate_synthetic_market(
            SynthSpec(
                field_dims=(2, 3),
                mixture_weights=(1.0,),
                mixture_probs=(((0.7, 0.3), (0.5, 0.3, 0.2)),),
                price_mu=(((0.0, 0.0), (0.0, 0.0, 0.0)), 10.0),
                price_logsig=(((0.0, 0.0), (0.0, 0.0, 0.0)), 0.0),
                logging_bid=(20.0, 20.0),
            ),
            400,
            stream(63, "mkt"),
        )
        cfg = WganConfig(batch_size=64, lr=1e-3, z_dim=8, gen_hidden=(12,),
                         critic_hidden=(12,), max_iters=30)
        runs = []
        for _ in range(2):
            gen, critic, _ = train_market_state_model(
                market.samples.requests, market.samples.requests,
                market.fdict, cfg, stream(63, "train"),
            )
            runs.append((gen, critic))
        assert np.array_equal(runs[0][0].net.params, runs[1][0].net.params)
        assert np.array_equal(runs[0][1].params, runs[1][1].params)


@pytest.mark.parametrize("dims,batch,hidden,z_dim", [
    ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 64, (32,), 8),  # learn-market
    ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 1024, (256, 256, 128), 64),  # paper
])
def test_generator_loss_skips_only_the_critic_parameter_gradient(dims, batch, hidden, z_dim):
    # generator_loss backpropagates through the critic for the input
    # gradient alone; the full backward's must be the same to the bit
    fdict = synth_feature_dict(dims)
    cfg = WganConfig(batch_size=batch, z_dim=z_dim, gen_hidden=hidden, critic_hidden=hidden)
    gen = build_generator(fdict, cfg, stream(74, "gen"))
    critic = build_critic(fdict.width, cfg, stream(74, "critic"))
    rng = stream(74, "draws")
    z = rng.standard_normal((batch, z_dim))
    noise = gumbel(rng, (batch, fdict.width), gen.dtype)
    x, trace = generator_forward(gen, z, cfg.tau, noise, record=True)
    scores, c_trace = mlp_forward(critic, x, record=True)
    seed = np.full((batch, 1), -1.0 / batch)
    _, dx_full = mlp_backward(c_trace, seed)
    _, dx = mlp_backward(c_trace, seed, param_rows=slice(0, 0))
    assert dx.tobytes() == dx_full.tobytes()
    want, _ = mlp_backward(trace, gumbel_softmax_vjp(x, dx_full, cfg.tau, gen.starts))
    loss, grads = generator_loss(gen, critic, z, cfg.tau, noise)
    assert loss == float(-(scores.sum() / batch))
    assert grads.tobytes() == want.tobytes()


class TestOnePassIteration:
    """An iteration runs the generator once, over the k critic batches and
    the generator's batch; the loop's pieces are the per-batch calls."""

    @pytest.mark.parametrize("dims,batch,hidden,z_dim", [
        ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 64, (32,), 8),  # learn-market
        ((3, 4), 256, (64, 64, 32), 16),                                 # criterion 4
        ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 1024, (256, 256, 128), 64),  # paper
    ])
    def test_fakes_and_generator_step_are_the_per_batch_calls(self, monkeypatch, dims,
                                                              batch, hidden, z_dim):
        fdict = synth_feature_dict(dims)
        reqs = UniformSampler(fdict, stream(72, "u")).sample_batch(batch + 100)
        cfg = WganConfig(batch_size=batch, lr=1e-3, z_dim=z_dim, gen_hidden=hidden,
                         critic_hidden=hidden, max_iters=2)
        k = cfg.critic_steps
        passes, fakes = [], []
        forward, loss = market_state.generator_forward, market_state.generator_loss

        def spy_forward(gen, z, tau, noise, record=False):
            out = forward(gen, z, tau, noise, record)
            if record:
                x = out[0]
                assert x.shape[0] == (k + 1) * batch
                for s in range(0, x.shape[0], batch):
                    alone = forward(gen, z[s : s + batch], tau, noise[s : s + batch])
                    assert np.array_equal(x[s : s + batch], alone)
                passes.append(x)
            return out

        def spy_critic(critic, real, fake, gp_lambda, rng):
            fakes.append(fake)
            return critic_loss(critic, real, fake, gp_lambda, rng)

        def spy_generator(gen, critic, z, tau, noise, samples=None):
            assert samples is not None
            got = loss(gen, critic, z, tau, noise, samples=samples)
            # a pass of its own on the same rows (the spied forward is the loop's)
            fresh = loss(gen, critic, z, tau, noise,
                         samples=forward(gen, z, tau, noise, record=True))
            assert got[0] == fresh[0] and np.array_equal(got[1], fresh[1])
            assert np.array_equal(samples[0], passes[-1][k * batch :])
            return got

        monkeypatch.setattr(market_state, "generator_forward", spy_forward)
        monkeypatch.setattr(market_state, "critic_loss", spy_critic)
        monkeypatch.setattr(market_state, "generator_loss", spy_generator)
        train_market_state_model(reqs, reqs, fdict, cfg, stream(72, "train"))
        assert len(passes) == 2 and len(fakes) == 2 * k
        for i, fake in enumerate(fakes):
            s = (i % k) * batch
            assert np.array_equal(fake, passes[i // k][s : s + batch])

    def test_two_runs_give_identical_nets_and_diagnostics(self):
        fdict = synth_feature_dict((3, 4))
        reqs = UniformSampler(fdict, stream(73, "u")).sample_batch(400)
        cfg = WganConfig(batch_size=32, lr=1e-3, z_dim=4, gen_hidden=(8,),
                         critic_hidden=(8,), max_iters=60, stop_window=5,
                         stop_min_iters=40)
        runs = [train_market_state_model(reqs, reqs, fdict, cfg, stream(73, "train"))
                for _ in range(2)]
        (gen_a, critic_a, diag_a), (gen_b, critic_b, diag_b) = runs
        assert gen_a.net.params.tobytes() == gen_b.net.params.tobytes()
        assert critic_a.params.tobytes() == critic_b.params.tobytes()
        assert diag_a.iterations == diag_b.iterations > 0
        assert diag_a.stopped_early == diag_b.stopped_early
        for name in ("gaps", "critic_losses", "gen_losses"):
            assert np.array(getattr(diag_a, name)).tobytes() == \
                np.array(getattr(diag_b, name)).tobytes()


class TestSamplers:
    def test_empirical_single_record(self):
        req = PackedRequests(np.array([[0, 2]]), 4)
        sampler = EmpiricalSampler(req, stream(64, "emp"))
        assert sampler.sample_batch(10) == req.rows(np.zeros(10, dtype=np.int64))

    def test_empirical_frequencies(self):
        corpus = PackedRequests.from_rows([[0]] * 6 + [[1]] * 3 + [[2]] * 1, 3)
        sampler = EmpiricalSampler(corpus, stream(65, "emp"))
        draws = sampler.sample_batch(100_000).indices
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.all(np.abs(freqs - [0.6, 0.3, 0.1]) < 0.01)

    def test_empirical_seed_determinism(self):
        reqs = PackedRequests(np.arange(5)[:, None], 5)
        a = EmpiricalSampler(reqs, stream(66, "e")).sample_batch(20)
        b = EmpiricalSampler(reqs, stream(66, "e")).sample_batch(20)
        assert a == b

    def test_uniform_sampler_stays_in_blocks(self):
        fdict = toy_fdict()
        sampler = UniformSampler(fdict, stream(67, "u"))
        reqs = sampler.sample_batch(50)
        assert np.all(reqs.counts == len(fdict.fields))
        for row in reqs.indices.reshape(50, -1):
            for (lo, hi), j in zip(sampler.slices, row):
                assert lo <= j < hi

    def test_uniform_sampler_covers_every_category(self):
        fdict = toy_fdict()
        reqs = UniformSampler(fdict, stream(68, "u")).sample_batch(2000)
        seen = np.unique(reqs.indices)
        assert np.array_equal(seen, np.arange(fdict.width))

    def test_generator_batch_matches_indices(self):
        gen = build_generator(toy_fdict(), TOY_CFG, stream(69, "init"))
        reqs = GeneratorSampler(gen, 0.667, stream(69, "s")).sample_batch(25)
        idx = GeneratorSampler(gen, 0.667, stream(69, "s")).sample_indices(25)
        assert len(reqs) == 25
        assert reqs.width == gen.width
        assert np.array_equal(reqs.indices.reshape(25, -1), idx)
