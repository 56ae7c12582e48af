"""Time `rtb` commands as child processes and read each child's peak memory.

    python3 bench/footprint.py --label after
    python3 bench/footprint.py --label before --src OLD_CHECKOUT/src
    python3 bench/footprint.py --label ci --repeats 1 --out /tmp/footprint.json

The one shape is examples/desk.spec's synthetic market (4 000 records),
ingested, with the test split's market-state and price models and the
rlb tables made once in this process, all at examples/quick.cfg's sizes.
Each repeat then starts one child interpreter per layer, `python -m
rtblab.cli` with --src first on its PYTHONPATH:

- `help`: `rtb --help`;
- `evaluate`: `rtb evaluate` of the rlb agent in the test environment;
- `solve_rlb`: `rtb solve-rlb`;
- `train_price`: `rtb train-price` on the train split.

A layer's time is the child's wall time from spawn to exit, interpreter
start-up and imports included; `maxrss_mb` is the child's ru_maxrss from
os.wait4, read by a small launcher process (see LAUNCHER). `outputs_sha256` hashes, by layer, what the child wrote: the
help text, the report, the rlb checkpoint and the price checkpoint, so
equal hashes under two labels mean byte-identical outputs. The options,
the repeats, the host scaling and the file, BENCH_footprint.json, are
bench/harness.py's.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import warnings

import harness

EXAMPLES = os.path.join(harness.ROOT, "examples")
QUICK = ["--config", os.path.join(EXAMPLES, "quick.cfg")]


def set_up(d) -> None:
    """Ingest desk.spec's market into d/data and write the models and
    tables the timed commands read, through rtblab.cli in this process."""
    from rtblab.cli import main

    raw, data = os.path.join(d, "raw"), os.path.join(d, "data")
    steps = [
        ["synth", os.path.join(EXAMPLES, "desk.spec"), "--out", raw],
        ["ingest", os.path.join(raw, "log.tsv"), "--schema", os.path.join(raw, "schema.txt"),
         "--out", data] + QUICK,
        ["train-market", data, "--split", "test", "--out", os.path.join(d, "market.ckpt")]
        + QUICK,
        ["train-price", data, "--split", "test", "--out", os.path.join(d, "price.ckpt")]
        + QUICK,
        ["solve-rlb", "--data", data, "--out", os.path.join(d, "rlb.ckpt")] + QUICK,
    ]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")   # the quick price fit stops short
        for argv in steps:
            if main(argv) != 0:
                raise SystemExit(f"set-up failed: rtb {' '.join(argv)}")


def commands(d) -> dict:
    """layer -> (argv, the file whose bytes are its output)."""
    data = os.path.join(d, "data")
    return {
        "help": (["--help"], os.path.join(d, "help.out")),
        "evaluate": (["evaluate", "--data", data, "--market", os.path.join(d, "market.ckpt"),
                      "--price", os.path.join(d, "price.ckpt"),
                      "--agents", os.path.join(d, "rlb.ckpt"),
                      "--out", os.path.join(d, "report.tsv")] + QUICK,
                     os.path.join(d, "report.tsv")),
        "solve_rlb": (["solve-rlb", "--data", data, "--out", os.path.join(d, "rlb-timed.ckpt")]
                      + QUICK, os.path.join(d, "rlb-timed.ckpt")),
        "train_price": (["train-price", data, "--split", "train",
                         "--out", os.path.join(d, "price-timed.ckpt")] + QUICK,
                        os.path.join(d, "price-timed.ckpt")),
    }


# Spawns one command and prints its wall seconds, exit code and ru_maxrss
# (KiB). A child spawned straight from this process would report this
# process's peak when it is larger than its own: glibc's posix_spawn
# shares the parent's memory until exec, which folds that memory's
# high-water mark into the child's. The launcher, run without site, is
# smaller than any `rtb` child.
LAUNCHER = """
import os, sys, time
out, err, *argv = sys.argv[1:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child(layer, argv, d, env):
    """A timer of one `rtb argv` child: (seconds, {"maxrss_mb": its peak})."""
    out, err = os.path.join(d, f"{layer}.out"), os.path.join(d, f"{layer}.err")
    args = [sys.executable, "-S", "-c", LAUNCHER, out, err,
            sys.executable, "-m", "rtblab.cli", *argv]

    def seconds():
        res = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
        elapsed, code, maxrss_kib = res.stdout.split()
        if code != "0":
            with open(err, "r", encoding="utf-8") as fh:
                raise SystemExit(f"rtb {argv[0]} exited {code}:\n{fh.read()}")
        return float(elapsed), {"maxrss_mb": int(maxrss_kib) / 1024.0}
    return seconds


def shape(d):
    import rtblab

    set_up(d)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rtblab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmds = commands(d)

    def outputs():
        hashes = {}
        for layer, (_, path) in cmds.items():
            with open(path, "rb") as fh:
                hashes[layer] = hashlib.sha256(fh.read()).hexdigest()
        return {"outputs_sha256": hashes}

    timers = {layer: child(layer, argv, d, env) for layer, (argv, _) in cmds.items()}
    return {"spec": "examples/desk.spec", "config": "examples/quick.cfg"}, timers, outputs


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="rtblab-footprint-") as work:
        code = harness.main(__doc__, "BENCH_footprint.json", "s",
                            {"desk.spec quick.cfg": lambda: shape(work)})
    sys.exit(code)
