"""Time the WGAN-GP training layers of the market-state model at three shapes.

    python3 bench/wgan_iter.py --label after
    python3 bench/wgan_iter.py --label before --src OLD_CHECKOUT/src

The shapes are the learn-market benchmark's (14 fields of width 128 in
all, multi-hot in the first field; batch 64, hidden 32, z 8),
criterion 4's (the 3 + 4 category toy market; batch 256, hidden
(64, 64, 32), z 16) and the paper's (the learn-market fields; batch
1024, hidden (256, 256, 128), z 64). At each shape it times:

- one WGAN iteration: `train_market_state_model` run for ITERS
  iterations, divided by ITERS (packing and building the nets included);
- one critic step, `critic_loss`, on a real, a fake and an
  interpolated batch;
- `mlp_forward` (recording a trace) and `mlp_backward` of the critic on
  one batch;
- `gradient_penalty` on one batch of interpolates;
- `generator_forward` on one batch;
- `generator_pass`: `generator_forward` on (k + 1)·batch rows, the one
  recorded generator pass an iteration makes over its k critic batches
  and its generator batch (k = 5 critic steps).

Every layer but the iteration is the mean of CALLS calls. The options,
the repeats, the host scaling and the file, BENCH_wgan_iter.json, are
bench/harness.py's. `outputs_sha256` hashes the trained nets and one
critic step's gradients; every repeat of a shape must give the same
one. Labels before `host-scaled` have no scaled medians. --src can
time another checkout whose requests are PackedRequests batches and
whose nets and gradients are one flat vector each. Those vectors hold
each layer's w and b in layer order, so the hash equals that of the
labels before `flat-params`, recorded from trees that kept per-layer
arrays, which this script no longer drives.
The layer inputs are made in the nets' dtype. `parent-float64` and
`float32` were recorded together: `parent-float64` from the tree before
`float32`, whose market-state nets are float64 (its hashes equal
`host-scaled`'s), and `float32` from the tree whose generator and critic
are float32 and draw their Gumbel noise as -log(Exp(1)), so its hashes
differ from every earlier label's. `parent` and `one-pass` were recorded
together: `parent` (--src) from the tree before `one-pass` (its hashes
equal `float32`'s), and `one-pass` from the tree that generates once
per iteration and draws every batch's rows and noise before its critic
steps. That draw order changes the trained nets, so `one-pass`'s
hashes differ from every earlier label's.
"""

import sys
import time

import harness

import numpy as np  # after harness, which fixes the BLAS threads

# name -> (categories per field, batch, generator and critic hidden, z dim)
SHAPES = {
    "learn-market": ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 64, (32,), 8),
    "criterion-4": ((3, 4), 256, (64, 64, 32), 16),
    "paper": ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 1024, (256, 256, 128), 64),
}
N_REQUESTS = 3600
ITERS = 20
CALLS = 20


def corpus(field_dims, fdict, g):
    """N_REQUESTS requests: one category per field and 1-3 in the first."""
    from rtblab.data import PackedRequests

    offsets = np.array([fdict.offset(f) for f in fdict.fields])
    cats = np.stack([g.integers(0, d + 1, size=N_REQUESTS) for d in field_dims], axis=1)
    rows = []
    for row in cats + offsets:
        extra = g.choice(field_dims[0] + 1, size=int(g.integers(0, 3)), replace=False)
        rows.append(np.unique(np.concatenate([row, offsets[0] + extra])))
    return PackedRequests.from_rows(rows, fdict.width)


def shape(field_dims, batch, hidden, z_dim):
    from rtblab.autodiff import gradient_penalty, mlp_backward, mlp_forward
    from rtblab.market_state import (WganConfig, build_critic, build_generator,
                                     critic_loss, generator_forward,
                                     train_market_state_model)
    from rtblab.rng import gumbel, stream
    from rtblab.synth import synth_feature_dict

    fdict = synth_feature_dict(field_dims)
    reqs = corpus(field_dims, fdict, np.random.default_rng(20200401))
    cut = N_REQUESTS * 3 // 4
    train, val = reqs.rows(np.arange(cut)), reqs.rows(np.arange(cut, N_REQUESTS))
    cfg = WganConfig(batch_size=batch, lr=1e-3, z_dim=z_dim, gen_hidden=hidden,
                     critic_hidden=hidden, max_iters=ITERS,
                     stop_min_iters=ITERS + 1)

    gen = build_generator(fdict, cfg, stream(1, "bench", "gen"))
    critic = build_critic(fdict.width, cfg, stream(1, "bench", "critic"))
    g = stream(1, "bench", "data")
    # the batches in the nets' dtype (float64 or float32, by tree)
    dtype = critic.params.dtype
    real = train.rows(np.arange(batch)).dense().astype(dtype)
    z = g.standard_normal((batch, z_dim))
    noise = gumbel(g, (batch, fdict.width)).astype(dtype)
    fake = generator_forward(gen, z, cfg.tau, noise)
    t = g.random((batch, 1)).astype(dtype)
    x_hat = t * real + (1.0 - t) * fake
    _, trace = mlp_forward(critic, real, record=True)
    ones = np.ones((batch, 1), dtype)
    rows = (cfg.critic_steps + 1) * batch
    z_pass = g.standard_normal((rows, z_dim))
    noise_pass = gumbel(g, (rows, fdict.width)).astype(dtype)
    trained = {}

    def train_once():
        out = train_market_state_model(train, val, fdict, cfg, stream(1, "bench", "train"))
        return [out[0].net.params, out[1].params]

    def wgan_iter():
        start = time.perf_counter()
        trained["nets"] = train_once()
        return (time.perf_counter() - start) / ITERS

    def critic_step():
        return critic_loss(critic, real, fake, cfg.gp_lambda, stream(1, "bench", "gp"))[1]

    layers = {
        "wgan_iter": wgan_iter,
        "critic_loss": harness.timer(critic_step, CALLS),
        "mlp_forward": harness.timer(lambda: mlp_forward(critic, real, record=True), CALLS),
        "mlp_backward": harness.timer(lambda: mlp_backward(trace, ones), CALLS),
        "gradient_penalty": harness.timer(lambda: gradient_penalty(critic, x_hat), CALLS),
        "generator_forward": harness.timer(lambda: generator_forward(gen, z, cfg.tau, noise),
                                           CALLS),
        "generator_pass": harness.timer(
            lambda: generator_forward(gen, z_pass, cfg.tau, noise_pass, record=True), CALLS),
    }
    facts = {"width": fdict.width, "fields": len(field_dims), "batch": batch,
             "hidden": list(hidden), "z_dim": z_dim, "iters": ITERS, "calls": CALLS}
    return facts, layers, lambda: {
        "outputs_sha256": harness.digest(trained["nets"] + [critic_step()])}


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_wgan_iter.json", "ms",
                          {name: lambda s=spec: shape(*s) for name, spec in SHAPES.items()}))
