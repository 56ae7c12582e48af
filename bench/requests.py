"""Time the request data path: ingest, load, fdqi transitions, the
PackedRequests gathers and dots and the replay gather, and measure the
replay buffer's bytes per transition.

    python3 bench/requests.py --label after
    python3 bench/requests.py --label before --src OLD_CHECKOUT/src

The data is perfbench's synthetic market (5 fields, 6000 records), as a
one-hot log (the train-agents workload's) and with seeded multi-hot user
tags (learn-market's), synthesized and parsed once per shape. The log
is always synthesized by the source tree of the checkout that holds
this script, so every label reads the same log whatever --src it
times. At each shape it times:

- ingest: `parse_log`, `build_feature_dictionary` (min_count 1),
  `SampleSet.from_records` and `save`, from the log file to the sample
  file. The four names are the same in trees that parse a log into one
  object per record and in trees that parse it into columns, so --src
  times either;
- load: `SampleSet.load` of that file;
- fdqi: `fdqi_build_transitions` on the loaded set (t0 = 100);
- rows_1: a 1-row `rows` of a tape-like batch (TAPE rows of the set),
  as `SimEnv.step` takes each observation;
- dot_1: `dot` of that 1-row batch, as `q_values` prices it;
- dot_split: `dot` of the whole loaded set, as the price fit prices it.

On the one-hot shape only, it also times

- gather_800 and gather_200000: `batch_arrays` of BATCH rows from a
  replay buffer holding 800 and 200 000 transitions of 1-row requests
  (200 000 is the desk `ddqn_total_steps`),

and records replay_bytes_per_transition: the memory (by tracemalloc) a
full RING-slot `ReplayBuffer` holds per transition, when every step
makes one new 1-row request that is also the next step's request, as
`SimEnv` hands them out. The tagged shape has neither: its replay would
be filled from a ragged empirical corpus, and the replay buffer holds
requests of one index count only (that of its first push).

Every layer is the mean of CALLS calls (MICRO_CALLS for the layers of
a few microseconds). The options, the repeats, the host scaling and the
file, BENCH_requests.json, are bench/harness.py's. `outputs_sha256`
hashes the sample file and every fdqi transition; equal hashes across
labels mean equal results. The labels up to `column-ingest` also timed
one DDQN update (`ddqn_update`, hashed as `ddqn`: its losses and
network) on a replay buffer of 800 environment steps, which
bench/q_update.py times now; the labels before `flat-params` were
recorded from trees with other parameter layouts, which this script no
longer drives, and the labels before `columnar-replay` timed that
update on the tagged shape too. The labels before `csr-only` have no
rows_1, dot_1, dot_split or gather layer and no host-scaled medians,
and synthesized the log with the tree they timed. `parent` and
`column-ingest` were recorded together, `parent` from the tree before
`column-ingest`; the labels before those two timed ingest as
`from_records` and `save` only, on records parsed beforehand. In trees
that number a record's tags in set order, the tagged shape's
dictionary follows the hash seed, so its hashes compare across labels
only when PYTHONHASHSEED is fixed (it is recorded with the run).
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import tracemalloc

import harness

import numpy as np  # after harness, which fixes the BLAS threads

import workloads  # perfbench's synthetic market

SHAPES = ("one-hot", "tagged")
T0 = 100
RING = 20_000
GATHER_RINGS = (800, 200_000)
TAPE = 1024
BATCH = 32
CALLS = 20
MICRO_CALLS = 2000


def synth_log(shape, tmp):
    """(log path, schema path) of one shape, synthesized by this
    checkout's source tree whatever --src is, so that every label reads
    the same log."""
    spec = os.path.join(tmp, "spec.txt")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(workloads.synth_spec_text())
    raw = os.path.join(tmp, f"raw-{shape}")
    subprocess.run([sys.executable, "-m", "rtblab.cli", "synth", spec, "--out", raw,
                    "--seed", "1"], check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=os.path.join(harness.ROOT, "src")))
    log = os.path.join(raw, "log.tsv")
    if shape == "tagged":
        workloads.add_user_tags(log, 1)
    return log, os.path.join(raw, "schema.txt")


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


def shape(name, tmp):
    from rtblab.agents import ActionGrid, fdqi_build_transitions
    from rtblab.agents.replay import batch_arrays
    from rtblab.data import SampleSet, build_feature_dictionary, load_schema, parse_log

    log, schema = synth_log(name, tmp)
    schema = load_schema(schema)
    path = os.path.join(tmp, f"{name}.samples")
    grid = ActionGrid.from_max_price(300.0)

    def ingest():
        parsed = parse_log(log, schema)[0]
        fdict = build_feature_dictionary(parsed, 1)
        SampleSet.from_records(parsed, fdict).save(path)
        return fdict

    fdict = ingest()
    samples = SampleSet.load(path)

    g = np.random.default_rng(7)
    w = g.standard_normal(samples.width)
    tape = samples.requests.rows(np.arange(min(TAPE, len(samples))))
    one = tape.rows([7])
    layers = {
        "ingest": harness.timer(ingest, CALLS),
        "load": harness.timer(lambda: SampleSet.load(path), CALLS),
        "fdqi": harness.timer(lambda: fdqi_build_transitions(samples, grid, T0, 30_000.0),
                              CALLS),
        "rows_1": harness.timer(lambda: tape.rows([7]), MICRO_CALLS),
        "dot_1": harness.timer(lambda: one.dot(w), MICRO_CALLS),
        "dot_split": harness.timer(lambda: samples.requests.dot(w), CALLS),
    }
    facts = {"records": len(samples), "width": fdict.width, "t0": T0, "batch": BATCH,
             "calls": CALLS}
    if name == "one-hot":
        for size in GATHER_RINGS:
            table = ring(samples, size)
            ids = table.sample(BATCH, g)
            layers[f"gather_{size}"] = harness.timer(
                lambda t=table, i=ids: batch_arrays(t, i), MICRO_CALLS)
        facts.update(ring=RING, replay_bytes_per_transition=replay_bytes(samples))

    def outputs():
        trs = fdqi_build_transitions(samples, grid, T0, 30_000.0)
        batch = batch_arrays(trs, np.arange(len(trs["reward"])))
        with open(path, "rb") as fh:
            hashes = {"samples": hashlib.sha256(fh.read()).hexdigest()}
        hashes["fdqi"] = harness.digest(
            [batch[k] for k in ("b", "t", "action", "reward", "next_b", "next_t", "done")]
            + [batch["packed"].dense(), batch["next_packed"].dense()])
        return {"outputs_sha256": hashes}

    return facts, layers, outputs


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(harness.main(__doc__, "BENCH_requests.json", "ms",
                              {name: lambda n=name: shape(n, tmp) for name in SHAPES}))
