"""Adversarially trained market state model.

A generator maps standard-normal noise to a relaxed one-hot bid request
(one Gumbel-softmax block per categorical field). A scalar critic is
trained with the Wasserstein objective plus an input-gradient penalty;
the generator descends the negated critic score through the relaxation.
Simulation-time sampling takes the per-field argmax of a relaxed draw,
so emitted requests are exact one-hots. Every sampler (generator,
empirical, uniform) draws n requests with one call, sample_batch(n),
which returns them as one n-row PackedRequests.

Training runs the generator once per iteration: the critic steps do not
move it, so one recorded pass over the k critic batches and the
generator's batch serves them all, after the iteration has drawn every
batch's rows and noise up front (train_market_state_model gives the
order).

The generator and critic are float32 (NET_DTYPE): their real batches,
interpolation weights and Gumbel noise are made in that dtype, and the
autodiff runs in it. A net built elsewhere keeps its own dtype.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Mlp,
    gradient_penalty,
    gumbel_softmax,
    gumbel_softmax_vjp,
    mlp_backward,
    mlp_forward,
)
from .data import FeatureDict, PackedRequests
from .errors import ConfigError, DataError, NumericalError
from .optim import AdamState, adam_step, make_mlp
from .rng import gumbel

# relative change of the validation gap's window means that counts as stable
STOP_TOL = 1e-3
# dtype of the nets build_generator and build_critic make
NET_DTYPE = np.float32


@dataclass
class WganConfig:
    gp_lambda: float = 10.0
    critic_steps: int = 5
    batch_size: int = 1024
    tau: float = 0.667
    lr: float = 1e-4
    l2: float = 1e-10
    max_iters: int = 4000
    z_dim: int = 64
    gen_hidden: tuple = (256, 256, 128)
    critic_hidden: tuple = (256, 256, 128)
    activation: str = "relu"
    stop_window: int = 50
    stop_min_iters: int = 500


@dataclass
class Generator:
    """Trunk MLP ending in one affine logits head per field.

    The head is stored as a single identity layer whose weight columns
    partition by field block, which is the same map (and parameter
    count) as separate per-field affine heads.
    """

    net: Mlp
    slices: tuple     # (start, stop) per field block in the request vector
    z_dim: int

    @property
    def width(self) -> int:
        return self.net.out_dim

    @property
    def starts(self) -> tuple:
        return tuple(lo for lo, _ in self.slices)

    @property
    def dtype(self):
        return self.net.params.dtype


def field_slices(fdict: FeatureDict) -> tuple:
    return tuple(
        (fdict.offset(f), fdict.offset(f) + fdict.field_width(f)) for f in fdict.fields
    )


def build_generator(fdict: FeatureDict, cfg: WganConfig, rng) -> Generator:
    dims = [cfg.z_dim, *cfg.gen_hidden, fdict.width]
    acts = [cfg.activation] * len(cfg.gen_hidden) + ["identity"]
    return Generator(make_mlp(dims, acts, rng, NET_DTYPE), field_slices(fdict), cfg.z_dim)


def build_critic(width: int, cfg: WganConfig, rng) -> Mlp:
    dims = [width, *cfg.critic_hidden, 1]
    acts = [cfg.activation] * len(cfg.critic_hidden) + ["identity"]
    return make_mlp(dims, acts, rng, NET_DTYPE)


def generator_forward(gen: Generator, z: np.ndarray, tau: float, noise: np.ndarray,
                      record: bool = False):
    """Soft samples: one segmented Gumbel-softmax over the head logits."""
    z = np.atleast_2d(z)
    if z.shape[1] != gen.z_dim:
        raise ConfigError(f"noise dim {z.shape[1]} != generator z dim {gen.z_dim}")
    out = mlp_forward(gen.net, z, record=record)
    logits, trace = out if record else (out, None)
    x = gumbel_softmax(logits, tau, noise, gen.starts)
    return (x, trace) if record else x


class GeneratorSampler:
    """Draws discrete one-hot requests from a trained generator."""

    def __init__(self, gen: Generator, tau: float, rng):
        self.gen = gen
        self.tau = tau
        self.rng = rng

    def sample_indices(self, n: int) -> np.ndarray:
        z = self.rng.standard_normal((n, self.gen.z_dim))
        noise = gumbel(self.rng, (n, self.gen.width), self.gen.dtype)
        x = generator_forward(self.gen, z, self.tau, noise)
        idx = np.empty((n, len(self.gen.slices)), dtype=np.int64)
        for j, (lo, hi) in enumerate(self.gen.slices):
            idx[:, j] = lo + np.argmax(x[:, lo:hi], axis=1)
        return idx

    def sample_batch(self, n: int) -> PackedRequests:
        return PackedRequests(self.sample_indices(n), self.gen.width)


class EmpiricalSampler:
    """Uniform-with-replacement draws from a historical request corpus."""

    def __init__(self, requests: PackedRequests, rng):
        if len(requests) == 0:
            raise ConfigError("empirical sampler needs a non-empty corpus")
        self.requests = requests
        self.rng = rng

    def sample_batch(self, n: int) -> PackedRequests:
        return self.requests.rows(self.rng.integers(len(self.requests), size=n))


class UniformSampler:
    """Uniform category per field; the MMD benchmark's null model."""

    def __init__(self, fdict: FeatureDict, rng):
        self.slices = field_slices(fdict)
        self.width = fdict.width
        self.rng = rng

    def sample_batch(self, n: int) -> PackedRequests:
        idx = np.stack([self.rng.integers(lo, hi, size=n, dtype=np.int64)
                        for lo, hi in self.slices], axis=1)
        return PackedRequests(idx, self.width)


def critic_loss(critic: Mlp, real: np.ndarray, fake: np.ndarray,
                gp_lambda: float, rng):
    """Critic objective mean c(fake) - mean c(real) + lambda * penalty.

    Descending it maximizes the real-fake score gap. The penalty is
    evaluated at per-pair uniform interpolates of (real, fake).
    Returns (loss, grads in the layout of critic.params, parts) where
    parts carries the raw pieces.

    One forward runs over the stacked [real; fake; interpolates]. One
    backward then gives the Wasserstein parameter gradient, contracted
    over the real and fake rows only, and the input gradient at the
    interpolates, from which gradient_penalty takes its tangent pass.
    """
    real = np.atleast_2d(real)
    fake = np.atleast_2d(fake)
    if real.shape[1] != fake.shape[1]:
        raise ConfigError("real and fake batches must share the feature width")
    n_r, n_f = real.shape[0], fake.shape[0]
    n = n_r + n_f

    batches = [real, fake]
    if gp_lambda > 0.0:
        m = min(n_r, n_f)
        t = rng.random((m, 1), dtype=critic.params.dtype)
        x_hat = t * real[:m] + (1.0 - t) * fake[:m]
        batches.append(x_hat)
    scores, trace = mlp_forward(critic, np.concatenate(batches), record=True)
    mean_real = float(scores[:n_r].sum() / n_r)
    mean_fake = float(scores[n_r:n].sum() / n_f)

    seed = np.ones_like(scores)
    seed[:n_r] = -1.0 / n_r
    seed[n_r:n] = 1.0 / n_f
    grads, dinput = mlp_backward(trace, seed, param_rows=slice(0, n))

    penalty = 0.0
    if gp_lambda > 0.0:
        penalty, p_grads, _ = gradient_penalty(critic, x_hat, trace, dinput[n:])
        grads += gp_lambda * p_grads

    loss = mean_fake - mean_real + gp_lambda * penalty
    parts = {"mean_real": mean_real, "mean_fake": mean_fake, "penalty": penalty}
    return loss, grads, parts


def generator_loss(gen: Generator, critic: Mlp, z: np.ndarray, tau: float,
                   noise: np.ndarray, samples=None):
    """Generator objective -mean c(soft samples), with grads (one vector in
    the layout of gen.net.params) through the Gumbel-softmax relaxation.

    `samples` is the (x, trace) of a recorded generator_forward on z and
    noise that the caller already ran; without it the pass runs here."""
    x, trace = samples or generator_forward(gen, z, tau, noise, record=True)
    scores, c_trace = mlp_forward(critic, x, record=True)
    n = x.shape[0]
    # only the input gradient is needed: no critic parameter gradient
    _, dx = mlp_backward(c_trace, np.full((n, 1), -1.0 / n), param_rows=slice(0, 0))
    grads, _ = mlp_backward(trace, gumbel_softmax_vjp(x, dx, tau, gen.starts))
    return float(-(scores.sum() / n)), grads


@dataclass
class TrainDiagnostics:
    gaps: list = field(default_factory=list)          # validation critic gap
    critic_losses: list = field(default_factory=list)
    gen_losses: list = field(default_factory=list)
    iterations: int = 0
    stopped_early: bool = False


def train_market_state_model(train_pk: PackedRequests, val_pk: PackedRequests,
                             fdict: FeatureDict, cfg: WganConfig, rng):
    """Alternating WGAN loop: critic_steps critic updates, one generator
    update per iteration; stops when the validation critic gap
    stabilizes or at max_iters.

    The critic steps leave the generator as it is, so an iteration runs
    the generator once. It first draws, from rng and in this order, the
    row ids of each critic batch (one choice per batch, so a batch has no
    repeated row unless the split is smaller than a batch), then one z
    block and one Gumbel block for those k batches and the generator's
    batch after them. One recorded generator pass over the k + 1 batches
    gives each critic step its fakes; the generator step reuses the last
    batch's samples and the tail of the trace. Each critic step then
    draws its interpolation weights.

    Returns (generator, critic, diagnostics).
    """
    if train_pk.width != fdict.width or val_pk.width != fdict.width:
        raise DataError(f"request width {train_pk.width} (validation {val_pk.width}) "
                        f"differs from the dictionary's {fdict.width}")
    n_train = len(train_pk)

    gen = build_generator(fdict, cfg, np.random.Generator(
        np.random.Philox(key=rng.integers(2**63))))
    critic = build_critic(fdict.width, cfg, np.random.Generator(
        np.random.Philox(key=rng.integers(2**63))))
    g_state = AdamState(gen.net.params)
    c_state = AdamState(critic.params)
    dtype = critic.params.dtype

    # fixed validation design keeps the stopping statistic low-variance
    n_val = min(len(val_pk), cfg.batch_size)
    val_real = val_pk.rows(np.arange(n_val)).dense(dtype)
    val_z = rng.standard_normal((n_val, cfg.z_dim))
    val_noise = gumbel(rng, (n_val, fdict.width), gen.dtype)

    diag = TrainDiagnostics()
    w = cfg.stop_window
    k, b = cfg.critic_steps, min(cfg.batch_size, n_train)
    for it in range(cfg.max_iters):
        rows = np.concatenate([rng.choice(n_train, size=b, replace=n_train < cfg.batch_size)
                               for _ in range(k)])
        reals = train_pk.rows(rows).dense(dtype)
        z = rng.standard_normal(((k + 1) * b, cfg.z_dim))
        noise = gumbel(rng, ((k + 1) * b, fdict.width), gen.dtype)
        fakes, g_trace = generator_forward(gen, z, cfg.tau, noise, record=True)
        for s in range(0, k * b, b):
            c_loss, c_grads, _ = critic_loss(critic, reals[s : s + b], fakes[s : s + b],
                                             cfg.gp_lambda, rng)
            if not np.isfinite(c_loss):
                raise NumericalError(f"critic loss non-finite at iteration {it}")
            adam_step(critic.params, c_grads, c_state, lr=cfg.lr, weight_decay=cfg.l2)

        g_loss, g_grads = generator_loss(gen, critic, z[k * b :], cfg.tau, noise[k * b :],
                                         samples=(fakes[k * b :], g_trace.tail(k * b)))
        if not np.isfinite(g_loss):
            raise NumericalError(f"generator loss non-finite at iteration {it}")
        adam_step(gen.net.params, g_grads, g_state, lr=cfg.lr, weight_decay=cfg.l2)

        val_fake = generator_forward(gen, val_z, cfg.tau, val_noise)
        val_scores = mlp_forward(critic, np.concatenate([val_real, val_fake]))
        gap = float(val_scores[:n_val].sum() / n_val - val_scores[n_val:].sum() / n_val)
        diag.gaps.append(gap)
        diag.critic_losses.append(c_loss)
        diag.gen_losses.append(g_loss)
        diag.iterations = it + 1

        # stabilization check on non-overlapping aggregates of stop_window
        # iterations; checking every iteration would stop on any momentary
        # crossing of the two window means long before convergence
        span = 4 * w
        ready = it + 1 >= max(2 * span, cfg.stop_min_iters)
        if ready and (it + 1) % w == 0:
            m1 = float(np.mean(diag.gaps[-span:]))
            m0 = float(np.mean(diag.gaps[-2 * span : -span]))
            if abs(m1 - m0) < STOP_TOL * max(1.0, abs(m0)):
                diag.stopped_early = True
                break
    return gen, critic, diag
