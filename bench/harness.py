"""What every bench case shares: the command line, the repeat loop, the
output-hash check, host scaling and the JSON file.

A case module (rlb_dp.py, wgan_iter.py, requests.py, q_update.py,
footprint.py) holds its constants, makes its inputs and ends in

    sys.exit(harness.main(__doc__, "BENCH_<case>.json", unit, shapes))

where `unit` is "s", "ms" or "us" and `shapes` maps each shape's name to
a function of no arguments. That function runs after --src is on
sys.path, so it imports rtblab itself, and returns (facts, layers,
outputs):

- facts: the shape's descriptive fields, copied into its record;
- layers: layer name -> a timer, a callable that returns the layer's
  seconds per call. `timer(fn, calls)` makes the usual one, the mean of
  `calls` calls of fn; a case builds its own where setup must stay
  outside the timer. A timer may instead return (seconds, readings),
  readings mapping a name to another number of the call (footprint.py's
  child `maxrss_mb`): the record then holds `median_<name>`,
  `min_<name>` and every reading, `<name>`, by layer, not host-scaled;
- outputs: a callable, run after the layers in every repeat, that
  returns the record's hash fields; every repeat must return the same.

Each of --repeats repeats first reads perfbench's `host_reference()`, a
fixed loop of small numpy calls, then runs every layer once, in order.
A shape's record holds the median, fastest and every time of each
layer in the case's unit, and `scaled_median_<unit>`: each median times
HOST_REF_QUIET_S over the loop's fastest time in the run, so labels
timed while the host ran slower or faster compare. The run, with the
facts of the machine that ran it, replaces `runs[--label]` of --out and
leaves every other label as it was. --src picks the rtblab source tree
to time, so another checkout can be timed into the same file.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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

UNITS = {"s": 1.0, "ms": 1e3, "us": 1e6}
REPEATS = 5


def timer(fn, calls):
    """A timer of the mean of `calls` calls of fn, in seconds."""
    def seconds() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls
    return seconds


def digest(arrays) -> str:
    """sha256 of the arrays' values as little-endian float64, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def measure(name, build, repeats, unit, host_ref) -> dict:
    facts, layers, outputs = build()
    times = {k: [] for k in layers}
    readings = {}               # reading name -> layer -> values
    seen = set()
    for _ in range(repeats):
        host_ref.append(host_reference())
        for k, seconds in layers.items():
            t = seconds()
            if isinstance(t, tuple):
                t, extra = t
                for r, v in extra.items():
                    readings.setdefault(r, {}).setdefault(k, []).append(v)
            times[k].append(t)
        seen.add(json.dumps(outputs(), sort_keys=True))
    if len(seen) != 1:
        raise SystemExit(f"{name}: repeats gave different outputs")
    f = UNITS[unit]
    record = {"name": name, **facts, "repeats": repeats, **json.loads(seen.pop()),
              f"median_{unit}": {k: f * statistics.median(v) for k, v in times.items()},
              f"min_{unit}": {k: f * min(v) for k, v in times.items()},
              f"times_{unit}": {k: [f * x for x in v] for k, v in times.items()}}
    for r, by_layer in readings.items():
        record[f"median_{r}"] = {k: statistics.median(v) for k, v in by_layer.items()}
        record[f"min_{r}"] = {k: min(v) for k, v in by_layer.items()}
        record[r] = by_layer
    return record


def main(doc, out, unit, shapes, key="shapes") -> int:
    """Time every shape into runs[--label] of --out (default ROOT/out);
    the records go under `key`."""
    p = argparse.ArgumentParser(description=doc.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--repeats", type=int, default=REPEATS)
    p.add_argument("--out", default=os.path.join(ROOT, out))
    args = p.parse_args()
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))

    host_ref = []
    records = [measure(name, build, args.repeats, unit, host_ref)
               for name, build in shapes.items()]
    scale = HOST_REF_QUIET_S / min(host_ref)
    for r in records:
        r[f"scaled_median_{unit}"] = {k: v * scale for k, v in r[f"median_{unit}"].items()}
        cells = "  ".join(f"{k} {v:.4g} ({r[f'scaled_median_{unit}'][k]:.4g})"
                          for k, v in r[f"median_{unit}"].items())
        print(f"{args.label}: {r['name']} median {unit} (host-scaled) {cells}")
    print(f"{args.label}: host reference {min(host_ref):.4f} s, scale {scale:.3f}")

    result = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    result["runs"][args.label] = {
        "machine": machine_facts(), key: records, "host_reference_s": host_ref,
        "host_scale": scale, "pythonhashseed": os.environ.get("PYTHONHASHSEED")}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0
