"""Time the request data path: ingest, load, fdqi transitions, the
PackedRequests gathers and dots, the replay gather and one DDQN update,
and measure the replay buffer's bytes per transition.

    python3 bench/requests.py --label after
    python3 bench/requests.py --label before --src OLD_CHECKOUT/src

The data is perfbench's synthetic market (5 fields, 6000 records), as a
one-hot log (the train-agents workload's) and with seeded multi-hot user
tags (learn-market's), synthesized and parsed once per shape. The log
is always synthesized by the source tree of the checkout that holds
this script, so every label reads the same log whatever --src it
times. At each shape it times:

- ingest: `SampleSet.from_records` on the parsed records, then `save`;
- load: `SampleSet.load` of that file;
- fdqi: `fdqi_build_transitions` on the loaded set (t0 = 100);
- rows_1: a 1-row `rows` of a tape-like batch (TAPE rows of the set),
  as `SimEnv.step` takes each observation;
- dot_1: `dot` of that 1-row batch, as `q_values` prices it;
- dot_split: `dot` of the whole loaded set, as the price fit prices it.

On the one-hot shape only, it also times

- gather_800 and gather_200000: `batch_arrays` of BATCH rows from a
  replay buffer holding 800 and 200 000 transitions of 1-row requests
  (200 000 is the desk `ddqn_total_steps`);
- ddqn_update: one DDQN update at the train-agents shape (batch 32,
  shared width 128, branch 64, 20 actions): `batch_arrays` on a batch
  drawn from a replay buffer holding 800 environment steps, then
  `ddqn_loss` and `adam_step`;

and records replay_bytes_per_transition: the memory (by tracemalloc) a
full RING-slot `ReplayBuffer` holds per transition, when every step
makes one new 1-row request that is also the next step's request, as
`SimEnv` hands them out. The tagged shape has neither: its replay would
be filled from a ragged empirical corpus, and the replay buffer holds
requests of one index count only (that of its first push).

Every layer time is the median over REPEATS repeats of the mean of CALLS
calls (MICRO_CALLS for the layers of a few microseconds). Before each
repeat the script reads perfbench's `host_reference()`, a fixed loop of
small numpy calls; `scaled_median_ms` multiplies each median by
HOST_REF_QUIET_S over the loop's fastest time in the run, so labels
timed while the host ran slower or faster compare. The times, with the
facts of the machine that ran them and hashes of the outputs (the
sample file, every fdqi transition, the update's losses and network),
go into BENCH_requests.json under --label, beside the labels already
there; equal hashes across labels mean equal results. The ddqn hash
also covers how `dot` rounds, so it differs between trees whose `dot`
sums a row in another order. --src picks the rtblab source tree to
time, so another checkout can be timed into the same file. The network
hash reads `params`, whose layout ([f1_w, f1_b], then each layer's w
and b) gives the same bytes as the per-layer arrays that earlier labels
hashed. The labels before `flat-params` were recorded from trees with
other layouts, which this script no longer drives, and the labels
before `columnar-replay` timed a DDQN update on the tagged shape too.
Only `parent` and `csr-only` (recorded together, `parent` from the tree
before `csr-only`) have the rows_1, dot_1, dot_split and gather layers
and host-scaled medians; the labels before them synthesized the log
with the tree they timed. In trees that number a record's tags in set
order, the tagged shape's dictionary follows the hash seed, so its
hashes compare across labels only when PYTHONHASHSEED is fixed (it is
recorded with the run).
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "BENCH_requests.json")
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
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (perfbench's synthetic market)

SHAPES = ("one-hot", "tagged")
T0 = 100
ENV_STEPS = 800
RING = 20_000
GATHER_RINGS = (800, 200_000)
TAPE = 1024
BATCH = 32
CALLS = 20
MICRO_CALLS = 2000
REPEATS = 5


def records(shape, tmp):
    """The parsed log of one shape, synthesized by this checkout's source
    tree whatever --src is, so that every label reads the same log."""
    from rtblab.data import load_schema, parse_log

    spec = os.path.join(tmp, "spec.txt")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(workloads.synth_spec_text())
    raw = os.path.join(tmp, f"raw-{shape}")
    subprocess.run([sys.executable, "-m", "rtblab.cli", "synth", spec, "--out", raw,
                    "--seed", "1"], check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    log = os.path.join(raw, "log.tsv")
    if shape == "tagged":
        workloads.add_user_tags(log, 1)
    return parse_log(log, load_schema(os.path.join(raw, "schema.txt")))[0]


def filled_buffer(samples):
    """A replay buffer holding ENV_STEPS steps of random bids."""
    from rtblab.agents import replay
    from rtblab.env import EnvMeta, SimEnv
    from rtblab.market_action import PriceModel
    from rtblab.market_state import EmpiricalSampler
    from rtblab.rng import stream

    d = samples.width
    env = SimEnv(EmpiricalSampler(samples.requests, stream(1, "bench", "x")),
                 PriceModel(np.zeros(d), 60.0, np.zeros(d), float(np.log(20.0))),
                 None, "impression", EnvMeta(cpm_ref=30_000.0, t0_ref=T0),
                 stream(1, "bench", "market"))
    g = stream(1, "bench", "bids")
    buf = replay.ReplayBuffer()
    obs = env.reset(3000.0, T0)
    for _ in range(ENV_STEPS):
        a = int(g.integers(20))
        out = env.step(5.0 * a)
        nxt = out.observation
        row = (obs.request, obs.budget_norm, obs.time_norm, a, out.reward,
               nxt.request, nxt.budget_norm, nxt.time_norm, out.done)
        buf.push(*row)
        obs = env.reset(3000.0, T0) if out.done else nxt
    return buf


def ring(samples, size):
    """A full size-slot replay buffer; every step makes one new 1-row
    request that is also the next step's request, as SimEnv hands them out."""
    from rtblab.agents import replay

    n = len(samples)
    buf = replay.ReplayBuffer(size)
    nxt = samples.requests.rows([0])
    for j in range(size):
        req, nxt = nxt, samples.requests.rows([(j + 1) % n])
        buf.push(req, 0.5, 1.0, 3, 0.0, nxt, 0.5, 1.0, False)
    return buf


def replay_bytes(samples) -> float:
    """Bytes a full RING-slot replay buffer holds per transition."""
    tracemalloc.start()
    buf = ring(samples, RING)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return held / RING


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def per_call(fn, calls=CALLS) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def time_shape(shape, tmp, host_ref) -> dict:
    from rtblab.agents import ActionGrid, QNetwork, ddqn_loss, fdqi_build_transitions
    from rtblab.agents.replay import batch_arrays
    from rtblab.data import SampleSet, build_feature_dictionary
    from rtblab.optim import AdamState, adam_step
    from rtblab.rng import stream

    recs = records(shape, tmp)
    fdict = build_feature_dictionary(recs, 1)
    path = os.path.join(tmp, f"{shape}.samples")
    grid = ActionGrid.from_max_price(300.0)

    def ingest():
        SampleSet.from_records(recs, fdict).save(path)

    ingest()
    samples = SampleSet.load(path)
    one_hot = shape == "one-hot"
    buf = filled_buffer(samples) if one_hot else None

    def ddqn_updates():
        """CALLS updates from a fresh network and sampling stream."""
        rng = stream(1, "bench", "ddqn")
        qnet = QNetwork.build(samples.width, rng)
        target = qnet.copy()
        state = AdamState(qnet.params)
        losses = []
        start = time.perf_counter()
        for _ in range(CALLS):
            batch = batch_arrays(buf, buf.sample(BATCH, rng))
            loss, grads = ddqn_loss(qnet, target, batch)
            adam_step(qnet.params, grads, state, lr=1e-3)
            losses.append(loss)
        return (time.perf_counter() - start) / CALLS, [np.array(losses), qnet.params]

    g = np.random.default_rng(7)
    w = g.standard_normal(samples.width)
    tape = samples.requests.rows(np.arange(min(TAPE, len(samples))))
    one = tape.rows([7])
    layers = {
        "ingest": (ingest, CALLS),
        "load": (lambda: SampleSet.load(path), CALLS),
        "fdqi": (lambda: fdqi_build_transitions(samples, grid, T0, 30_000.0), CALLS),
        "rows_1": (lambda: tape.rows([7]), MICRO_CALLS),
        "dot_1": (lambda: one.dot(w), MICRO_CALLS),
        "dot_split": (lambda: samples.requests.dot(w), CALLS),
    }
    if one_hot:
        for size in GATHER_RINGS:
            table = ring(samples, size)
            ids = table.sample(BATCH, g)
            layers[f"gather_{size}"] = (lambda t=table, i=ids: batch_arrays(t, i),
                                        MICRO_CALLS)
    times = {k: [] for k in layers}
    outputs = set()
    for _ in range(REPEATS):
        host_ref.append(host_reference())
        for k, (fn, calls) in layers.items():
            times[k].append(per_call(fn, calls))
        trs = fdqi_build_transitions(samples, grid, T0, 30_000.0)
        batch = batch_arrays(trs, np.arange(len(trs["reward"])))
        with open(path, "rb") as fh:
            hashes = {"samples": hashlib.sha256(fh.read()).hexdigest()}
        hashes["fdqi"] = digest(
            [batch[k] for k in ("b", "t", "action", "reward", "next_b", "next_t",
                                "done")]
            + [batch["packed"].dense(), batch["next_packed"].dense()])
        if one_hot:
            t, nets = ddqn_updates()
            times.setdefault("ddqn_update", []).append(t)
            hashes["ddqn"] = digest(nets)
        outputs.add(tuple(sorted(hashes.items())))
    if len(outputs) != 1:
        raise SystemExit(f"{shape}: repeats gave different outputs")
    out = {
        "name": shape, "records": len(recs), "width": fdict.width, "t0": T0,
        "batch": BATCH, "calls": CALLS, "repeats": REPEATS,
        "outputs_sha256": dict(outputs.pop()),
        "median_ms": {k: 1e3 * statistics.median(v) for k, v in times.items()},
        "min_ms": {k: 1e3 * min(v) for k, v in times.items()},
        "times_ms": {k: [1e3 * x for x in v] for k, v in times.items()},
    }
    if one_hot:
        out.update(env_steps=ENV_STEPS, ring=RING,
                   replay_bytes_per_transition=replay_bytes(samples))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    host_ref = []
    with tempfile.TemporaryDirectory() as tmp:
        shapes = [time_shape(shape, tmp, host_ref) for shape in SHAPES]
    scale = HOST_REF_QUIET_S / min(host_ref)
    for s in shapes:
        s["scaled_median_ms"] = {k: v * scale for k, v in s["median_ms"].items()}
        cells = "  ".join(f"{k} {v:.4g} ({s['scaled_median_ms'][k]:.4g})"
                          for k, v in s["median_ms"].items())
        print(f"{args.label}: {s['name']} median ms (host-scaled) {cells}")
        if "replay_bytes_per_transition" in s:
            print(f"{args.label}: {s['name']} replay_bytes_per_transition "
                  f"{s['replay_bytes_per_transition']:.1f}")
    print(f"{args.label}: host reference {min(host_ref):.4f} s, scale {scale:.3f}")

    result = {"runs": {}}
    if os.path.exists(OUT):
        with open(OUT, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    result["runs"][args.label] = {"machine": machine_facts(), "shapes": shapes,
                                  "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
                                  "host_reference_s": host_ref, "host_scale": scale}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
