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
- `generator_forward` on one batch.

Every layer time is the median over REPEATS repeats of the mean of CALLS
calls. Before each repeat the script reads perfbench's `host_reference()`,
a fixed loop of small numpy calls; `scaled_median_ms` multiplies each
median by HOST_REF_QUIET_S over the loop's fastest time in the run, so
labels timed while the host ran slower or faster compare. The times,
with the facts of the machine that ran them and a hash of the outputs
(the trained nets and one critic step's gradients), go into
BENCH_wgan_iter.json under --label, beside the labels already there
(labels before `host-scaled` have no scaled medians). Every repeat of
a shape must give the same hash. --src picks the rtblab source tree to
time, so another checkout whose requests are PackedRequests batches and
whose nets and gradients are one flat vector each can be timed into the
same file. Those vectors hold each layer's w and b in layer order, so
the hash equals that of the labels before `flat-params`, recorded from
trees that kept per-layer arrays, which this script no longer drives.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_wgan_iter.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import (  # noqa: E402  (fixes the BLAS threads before numpy loads)
    HOST_REF_QUIET_S,
    host_reference,
    machine_facts,
)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# name -> (categories per field, batch, generator and critic hidden, z dim)
SHAPES = {
    "learn-market": ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 64, (32,), 8),
    "criterion-4": ((3, 4), 256, (64, 64, 32), 16),
    "paper": ((30, 20, 12, 10, 8, 8, 6, 5, 4, 3, 3, 2, 2, 1), 1024, (256, 256, 128), 64),
}
N_REQUESTS = 3600
ITERS = 20
CALLS = 20
REPEATS = 5


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


def per_call(fn) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        fn()
    return (time.perf_counter() - start) / CALLS


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def time_shape(name, field_dims, batch, hidden, z_dim, host_ref) -> dict:
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
    real = train.rows(np.arange(batch)).dense()
    z = g.standard_normal((batch, z_dim))
    noise = gumbel(g, (batch, fdict.width))
    fake = generator_forward(gen, z, cfg.tau, noise)
    t = g.random((batch, 1))
    x_hat = t * real + (1.0 - t) * fake
    _, trace = mlp_forward(critic, real, record=True)
    ones = np.ones((batch, 1))

    def train_once():
        out = train_market_state_model(train, val, fdict, cfg, stream(1, "bench", "train"))
        return [out[0].net.params, out[1].params]

    def critic_step():
        return critic_loss(critic, real, fake, cfg.gp_lambda, stream(1, "bench", "gp"))[1]

    layers = {
        "critic_loss": critic_step,
        "mlp_forward": lambda: mlp_forward(critic, real, record=True),
        "mlp_backward": lambda: mlp_backward(trace, ones),
        "gradient_penalty": lambda: gradient_penalty(critic, x_hat),
        "generator_forward": lambda: generator_forward(gen, z, cfg.tau, noise),
    }
    times = {"wgan_iter": []}
    times.update({k: [] for k in layers})
    hashes = set()
    for _ in range(REPEATS):
        host_ref.append(host_reference())
        start = time.perf_counter()
        nets = train_once()
        times["wgan_iter"].append((time.perf_counter() - start) / ITERS)
        hashes.add(digest(nets + [critic_step()]))
        for k, fn in layers.items():
            times[k].append(per_call(fn))
    if len(hashes) != 1:
        raise SystemExit(f"{name}: repeats gave different outputs")
    return {
        "name": name, "width": fdict.width, "fields": len(field_dims), "batch": batch,
        "hidden": list(hidden), "z_dim": z_dim, "iters": ITERS, "calls": CALLS,
        "repeats": REPEATS, "outputs_sha256": hashes.pop(),
        "median_ms": {k: 1e3 * statistics.median(v) for k, v in times.items()},
        "min_ms": {k: 1e3 * min(v) for k, v in times.items()},
        "times_ms": {k: [1e3 * x for x in v] for k, v in times.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    host_ref = []
    shapes = [time_shape(name, *spec, host_ref) for name, spec in SHAPES.items()]
    scale = HOST_REF_QUIET_S / min(host_ref)
    for s in shapes:
        s["scaled_median_ms"] = {k: v * scale for k, v in s["median_ms"].items()}
        cells = "  ".join(f"{k} {v:.3f} ({s['scaled_median_ms'][k]:.3f})"
                          for k, v in s["median_ms"].items())
        print(f"{args.label}: {s['name']} median ms (host-scaled) {cells}")
    print(f"{args.label}: host reference {min(host_ref):.4f} s, scale {scale:.3f}")

    result = {"runs": {}}
    if os.path.exists(OUT):
        with open(OUT, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    result["runs"][args.label] = {"machine": machine_facts(), "shapes": shapes,
                                  "host_reference_s": host_ref, "host_scale": scale}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
