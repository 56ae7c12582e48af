"""Two-sample maximum mean discrepancy with a Gaussian kernel.

The estimator is the biased V-statistic (all pairs, diagonals included),
scaled by sqrt(n); identical sample sets still score a small positive
value, which matches how the market-model benchmark is read. Squared
distances between one-hot requests come from active-index overlaps, so
the kernel matrix is exact.
"""

import numpy as np

from .data import PackedRequests
from .errors import ConfigError


def mmd_estimate(x: PackedRequests, y: PackedRequests, sigma: float = 1.0) -> float:
    """sqrt(n) * MMD between equal-size request batches."""
    xd = x.dense()
    yd = y.dense()
    n = xd.shape[0]

    def kernel(a, b):
        # ||u - v||^2 = |A| + |B| - 2|A ∩ B| for 0/1 rows; exact via dot
        sq = (
            (a * a).sum(axis=1)[:, None]
            + (b * b).sum(axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        return np.exp(-sq / (2.0 * sigma * sigma))

    mmd_sq = (
        kernel(xd, xd).mean() + kernel(yd, yd).mean() - 2.0 * kernel(xd, yd).mean()
    )
    return float(np.sqrt(n) * np.sqrt(max(mmd_sq, 0.0)))


def mmd_benchmark(test_requests: PackedRequests, samplers: dict, n: int = 200,
                  repeats: int = 100, sigma: float = 1.0, rng=None) -> dict:
    """Mean and std of sqrt(n)*MMD between fresh test draws and each sampler.

    samplers maps name -> object with sample_batch(n) -> an n-row
    PackedRequests. Per repeat a fresh n-vs-n draw is taken; the reference
    side always comes from the test corpus.
    """
    if len(test_requests) == 0:
        raise ConfigError("mmd benchmark needs a non-empty test corpus")
    out = {}
    values = {name: [] for name in samplers}
    for rep in range(repeats):
        ref = test_requests.rows(rng.integers(len(test_requests), size=n))
        for name, sampler in samplers.items():
            values[name].append(mmd_estimate(ref, sampler.sample_batch(n), sigma))
    for name, vals in values.items():
        arr = np.asarray(vals)
        out[name] = (float(arr.mean()), float(arr.std()))
    return out
