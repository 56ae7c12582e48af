"""Time the rlb DP kernel, `rlb_dp_solve`, at two fixed shapes.

    python3 bench/rlb_dp.py --label after
    python3 bench/rlb_dp.py --label before --src OLD_CHECKOUT/src

Each shape is solved REPEATS times against one fixed 301-price
histogram and a 20-action grid; the median, the fastest and every time
go into BENCH_rlb_dp.json under --label, beside the labels already
there, with the facts of the machine that ran that label and a hash of
the solved tables (equal hashes mean equal `value` and `policy`). --src
picks the rtblab source tree to time, so an older checkout can be timed
into the same file.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_rlb_dp.json")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import machine_facts  # noqa: E402  (fixes the BLAS threads before numpy loads)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

# (horizon T, budget grid B): the benchmark's train-agents solve, and a
# longer horizon on a smaller budget grid
SHAPES = ((30, 8828), (200, 2000))
N_PRICES = 301
N_ACTIONS = 20
REPEATS = 5


def histogram_and_grid():
    from rtblab.agents import ActionGrid
    from rtblab.data import PriceHistogram

    g = np.random.default_rng(20200401)
    counts = g.poisson(40.0 * np.exp(-0.5 * ((np.arange(N_PRICES) - 90) / 45) ** 2))
    return (PriceHistogram(counts / counts.sum()),
            ActionGrid.from_max_price(N_PRICES - 1, N_ACTIONS))


def time_shape(m, grid, T, B) -> dict:
    from rtblab.agents import rlb_dp_solve

    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        tables = rlb_dp_solve(m, T, B, grid)
        times.append(time.perf_counter() - start)
    digest = hashlib.sha256(tables.value.tobytes() + tables.policy.tobytes()).hexdigest()
    return {"T": T, "B": B, "D": int(m.probs.size), "k": len(grid), "repeats": REPEATS,
            "median_s": statistics.median(times), "min_s": min(times), "times_s": times,
            "tables_sha256": digest}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    m, grid = histogram_and_grid()
    shapes = [time_shape(m, grid, T, B) for T, B in SHAPES]
    for s in shapes:
        print(f"{args.label}: T={s['T']} B={s['B']} D={s['D']} k={s['k']}  "
              f"median {s['median_s']:.3f} s  min {s['min_s']:.3f} s")

    result = {"runs": {}}
    if os.path.exists(OUT):
        with open(OUT, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    result["runs"][args.label] = {"machine": machine_facts(), "shapes": shapes}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
