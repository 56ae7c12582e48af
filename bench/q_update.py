"""Time one Q-network update of exddqn and of fdqi, and Adam alone.

    python3 bench/q_update.py --label after
    python3 bench/q_update.py --label before --src OLD_CHECKOUT/src
    python3 bench/q_update.py --label ci --repeats 1 --out /tmp/q_update.json

The net has the train-agents benchmark's shape: 88-wide one-hot requests
of 14 fields, a 128-wide trunk, 64-wide branches and 20 actions. Its
transitions are one fixed synthetic table of N_TRANSITIONS rows. The
script times:

- `ddqn_update`: one exddqn update at batch 32, as `train_ddqn` makes
  it (sample from the replay buffer, gather, `ddqn_loss`, `adam_step`);
- `ddqn_loss`: `ddqn_loss` alone on one gathered batch of 32;
- `fdqi_update`: one fdqi update at batch 256, as `fdqi_train` makes it
  (gather the next rows of a shuffled order, `fitted_q_loss`, `adam_step`);
- `fitted_q_loss`: `fitted_q_loss` alone on one gathered batch of 256;
- `adam_step`: `adam_step` alone on the Q parameter vector, with one
  fixed gradient.

Every time is the median over REPEATS repeats (--repeats) of the mean of
CALLS calls. Each repeat starts the updates from the same net and Adam
state, so it ends with the same parameters; their sha256 (as float64)
goes into the output, and every repeat must give the same one. Before
each repeat the script reads perfbench's `host_reference()`, a fixed
loop of small numpy calls; `scaled_median_us` multiplies each median by
HOST_REF_QUIET_S over the loop's fastest time in the run, so labels
timed while the host ran slower or faster compare. The times, with the
facts of the machine that ran them, go into BENCH_q_update.json (--out)
under --label, beside the labels already there. --src picks the rtblab
source tree to time, so another checkout can be timed into the same
file. `parent` and `float32` were recorded together: `parent` (--src)
from the tree whose Q nets are float64, and `float32` from the tree
whose `QNetwork.build` makes float32 nets, so their hashes differ.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_q_update.json")
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

WIDTH = 88            # the train-agents benchmark's dictionary width
FIELDS = 14           # one active index per field
N_ACTIONS = 20
N_TRANSITIONS = 4096
DDQN_BATCH = 32
FDQI_BATCH = 256
CALLS = 40
REPEATS = 5


def transitions(g) -> dict:
    """A transition table of N_TRANSITIONS one-hot rows (see agents.replay)."""
    from rtblab.data import PackedRequests

    blocks = np.array_split(np.arange(WIDTH), FIELDS)
    lo = np.array([b[0] for b in blocks])
    size = np.array([b.size for b in blocks])

    def requests():
        return PackedRequests(lo + (g.random((N_TRANSITIONS, FIELDS)) * size).astype(np.int64),
                              WIDTH)

    b = 3.0 * g.random(N_TRANSITIONS)
    t = g.random(N_TRANSITIONS)
    return {
        "packed": requests(), "b": b, "t": t,
        "action": g.integers(0, N_ACTIONS, size=N_TRANSITIONS),
        "reward": (g.random(N_TRANSITIONS) < 0.6).astype(np.float64),
        "next_packed": requests(), "next_b": np.maximum(b - 0.01, 0.0),
        "next_t": np.maximum(t - 0.01, 0.0),
        "done": g.random(N_TRANSITIONS) < 0.01,
    }


def replay(table):
    """The table pushed row by row into a ReplayBuffer."""
    from rtblab.agents import ReplayBuffer
    from rtblab.agents.replay import PUSH_ORDER, REQUESTS

    buf = ReplayBuffer()
    for i in range(N_TRANSITIONS):
        buf.push(*(table[c].rows([i]) if c in REQUESTS else table[c][i]
                   for c in PUSH_ORDER))
    return buf


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


def time_layers(repeats, host_ref) -> dict:
    from rtblab.agents import QNetwork, ddqn_loss, fitted_q_loss
    from rtblab.agents.replay import batch_arrays
    from rtblab.optim import AdamState, adam_step
    from rtblab.rng import stream

    table = transitions(np.random.default_rng(20200401))
    buf = replay(table)
    net0 = QNetwork.build(WIDTH, stream(1, "bench", "q"), n_actions=N_ACTIONS)
    target = net0.copy()
    ddqn_batch = batch_arrays(buf, np.arange(DDQN_BATCH))
    fdqi_batch = batch_arrays(table, np.arange(FDQI_BATCH))
    grad = fitted_q_loss(net0, target, fdqi_batch)[1]
    order = stream(1, "bench", "order").permutation(N_TRANSITIONS)

    # each update loop is written out as in train_ddqn and fdqi_train, so
    # its batch and gradient stay alive until the next update replaces them:
    # freed between calls, they let malloc hand their pages back, and the
    # next call faults them in again (about 300 minor faults per fdqi
    # update against 8, which made it 0.3 ms slower)
    def ddqn_updates(qnet, state, rng):
        for _ in range(CALLS):
            batch = batch_arrays(buf, buf.sample(DDQN_BATCH, rng))
            loss, grads = ddqn_loss(qnet, target, batch)
            adam_step(qnet.params, grads, state, lr=1e-3)

    def fdqi_updates(qnet, state, _):
        for s in range(0, CALLS * FDQI_BATCH, FDQI_BATCH):
            s %= N_TRANSITIONS
            batch = batch_arrays(table, order[s : s + FDQI_BATCH])
            loss, grads = fitted_q_loss(qnet, target, batch)
            adam_step(qnet.params, grads, state, lr=1e-3)

    def adam_steps(qnet, state, _):
        for _ in range(CALLS):
            adam_step(qnet.params, grad, state, lr=1e-3)

    def run(updates):
        """CALLS updates from net0 and a fresh Adam state: (seconds per
        update, the parameters they end with)."""
        qnet = net0.copy()
        state = AdamState(qnet.params)
        start = time.perf_counter()
        updates(qnet, state, stream(1, "bench", "sample"))
        return (time.perf_counter() - start) / CALLS, qnet.params

    updates = {"ddqn_update": ddqn_updates, "fdqi_update": fdqi_updates,
               "adam_step": adam_steps}
    losses = {"ddqn_loss": lambda: ddqn_loss(net0, target, ddqn_batch),
              "fitted_q_loss": lambda: fitted_q_loss(net0, target, fdqi_batch)}
    times = {k: [] for k in ("ddqn_update", "ddqn_loss", "fdqi_update", "fitted_q_loss",
                             "adam_step")}
    hashes = set()
    for _ in range(repeats):
        host_ref.append(host_reference())
        ends = []
        for k, update in updates.items():
            elapsed, params = run(update)
            times[k].append(elapsed)
            ends.append(params)
        for k, fn in losses.items():
            times[k].append(per_call(fn))
        hashes.add(digest(ends + [grad]))
    if len(hashes) != 1:
        raise SystemExit("repeats gave different outputs")
    return {
        "width": WIDTH, "fields": FIELDS, "n_actions": N_ACTIONS,
        "params": int(net0.params.size), "dtype": str(net0.params.dtype),
        "transitions": N_TRANSITIONS, "ddqn_batch": DDQN_BATCH, "fdqi_batch": FDQI_BATCH,
        "calls": CALLS, "repeats": repeats, "outputs_sha256": hashes.pop(),
        "median_us": {k: 1e6 * statistics.median(v) for k, v in times.items()},
        "min_us": {k: 1e6 * min(v) for k, v in times.items()},
        "times_us": {k: [1e6 * x for x in v] for k, v in times.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--repeats", type=int, default=REPEATS)
    p.add_argument("--out", default=OUT)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))

    host_ref = []
    run = time_layers(args.repeats, host_ref)
    scale = HOST_REF_QUIET_S / min(host_ref)
    run["scaled_median_us"] = {k: v * scale for k, v in run["median_us"].items()}
    cells = "  ".join(f"{k} {v:.1f} ({run['scaled_median_us'][k]:.1f})"
                      for k, v in run["median_us"].items())
    print(f"{args.label}: {run['dtype']} median us (host-scaled) {cells}")
    print(f"{args.label}: host reference {min(host_ref):.4f} s, scale {scale:.3f}")

    result = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    result["runs"][args.label] = {"machine": machine_facts(), "layers": run,
                                  "host_reference_s": host_ref, "host_scale": scale}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
