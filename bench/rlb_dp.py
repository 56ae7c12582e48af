"""Time the rlb DP kernel, `rlb_dp_solve`, at two fixed shapes.

    python3 bench/rlb_dp.py --label after
    python3 bench/rlb_dp.py --label before --src OLD_CHECKOUT/src

Each shape is solved once per repeat (layer `solve`) against one fixed
301-price histogram and a 20-action grid, into BENCH_rlb_dp.json under
--label, with a hash of the solved tables (`tables_sha256`: the raw
bytes of `value` then `policy`, so equal hashes mean equal tables). The
options, the repeats and the host scaling are bench/harness.py's.
`before` and `after` were recorded before the harness: each holds one
time per shape as a number where later labels hold a dict by layer,
hashes only its last repeat and has no host reference or shape name.
"""

import hashlib
import sys
import time

import harness

import numpy as np  # after harness, which fixes the BLAS threads

# (horizon T, budget grid B): the benchmark's train-agents solve, and a
# longer horizon on a smaller budget grid
SHAPES = ((30, 8828), (200, 2000))
N_PRICES = 301
N_ACTIONS = 20


def histogram_and_grid():
    from rtblab.agents import ActionGrid
    from rtblab.data import PriceHistogram

    g = np.random.default_rng(20200401)
    counts = g.poisson(40.0 * np.exp(-0.5 * ((np.arange(N_PRICES) - 90) / 45) ** 2))
    return (PriceHistogram(counts / counts.sum()),
            ActionGrid.from_max_price(N_PRICES - 1, N_ACTIONS))


def shape(T, B):
    from rtblab.agents import rlb_dp_solve

    m, grid = histogram_and_grid()
    solved = {}

    def solve():
        start = time.perf_counter()
        solved["tables"] = rlb_dp_solve(m, T, B, grid)
        return time.perf_counter() - start

    def outputs():
        t = solved["tables"]
        digest = hashlib.sha256(t.value.tobytes() + t.policy.tobytes())
        return {"tables_sha256": digest.hexdigest()}

    return {"T": T, "B": B, "D": int(m.probs.size), "k": len(grid)}, {"solve": solve}, outputs


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_rlb_dp.json", "s",
                          {f"T={T} B={B}": lambda T=T, B=B: shape(T, B) for T, B in SHAPES}))
