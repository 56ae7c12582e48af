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

Every time is the mean of CALLS calls. Each repeat starts the updates
from the same net and Adam state, so it ends with the same parameters;
`outputs_sha256` hashes them (as float64), and every repeat must give
the same one. The options, the repeats, the host scaling and the file,
BENCH_q_update.json, are bench/harness.py's; the run's one shape,
`train-agents`, goes under `layers`. `parent` and `float32` were
recorded before the harness, so `layers` holds that shape's record
itself where later labels hold a one-record list. They were recorded
together: `parent` (--src) from the tree whose Q nets are float64, and
`float32` from the tree whose `QNetwork.build` makes float32 nets, so
their hashes differ.
"""

import sys
import time

import harness

import numpy as np  # after harness, which fixes the BLAS threads

WIDTH = 88            # the train-agents benchmark's dictionary width
FIELDS = 14           # one active index per field
N_ACTIONS = 20
N_TRANSITIONS = 4096
DDQN_BATCH = 32
FDQI_BATCH = 256
CALLS = 40


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


def shape():
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

    ends = {}

    def run(updates):
        """A timer of CALLS updates from net0 and a fresh Adam state,
        which keeps the parameters they end with."""
        def seconds():
            qnet = net0.copy()
            state = AdamState(qnet.params)
            start = time.perf_counter()
            updates(qnet, state, stream(1, "bench", "sample"))
            elapsed = time.perf_counter() - start
            ends[updates] = qnet.params
            return elapsed / CALLS
        return seconds

    layers = {"ddqn_update": run(ddqn_updates), "fdqi_update": run(fdqi_updates),
              "adam_step": run(adam_steps),
              "ddqn_loss": harness.timer(lambda: ddqn_loss(net0, target, ddqn_batch), CALLS),
              "fitted_q_loss": harness.timer(lambda: fitted_q_loss(net0, target, fdqi_batch),
                                             CALLS)}
    facts = {"width": WIDTH, "fields": FIELDS, "n_actions": N_ACTIONS,
             "params": int(net0.params.size), "dtype": str(net0.params.dtype),
             "transitions": N_TRANSITIONS, "ddqn_batch": DDQN_BATCH,
             "fdqi_batch": FDQI_BATCH, "calls": CALLS}
    return facts, layers, lambda: {"outputs_sha256": harness.digest(
        list(ends.values()) + [grad])}


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "BENCH_q_update.json", "us", {"train-agents": shape},
                          key="layers"))
