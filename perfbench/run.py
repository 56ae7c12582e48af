"""Phase benchmark for rtblab.

    python3 perfbench/run.py --workload learn-market --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, every metric

One run builds its inputs from --seed, sets up several times (set-up
time is the median), then repeats the workload's timed stages until
--seconds have passed and reports each stage at its fastest, scaled to
the host's quiet speed. Every output check counts as one operation.
With --trace 1 it instead runs one untraced and one traced pass and
reports the per-layer metrics. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys

# Fix the BLAS thread count before numpy loads: one process, one BLAS
# thread, so a run never uses more threads than the machine has cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# set up at least SETUP_MIN times and, for a cheap set-up, until
# SETUP_WINDOW_S seconds have gone into it (at most SETUP_MAX times)
SETUP_MIN, SETUP_MAX, SETUP_WINDOW_S = 3, 15, 5.0
MIN_PASSES = 3
# stop adding passes past this point so a run ends well inside 180 s
RUN_CAP_S = 120.0
PAPER_EVAL_STEPS = 2e7   # one paper-profile `rtb evaluate`
# The host's speed is read before every timed pass with a fixed loop of the
# kind of work rtblab does, about as long as one stage. Every stage timing
# is scaled by HOST_REF_QUIET_S over the loop's fastest time in the run, the
# loop taken at its fastest like each stage: see "Bounds and noise" in
# README.md. setup_s, a median, is not scaled.
HOST_REF_ITERS = 30000
HOST_REF_QUIET_S = 0.156   # about the loop's fastest on a quiet 2-vCPU Xeon VM

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
STAGE_UNITS = {"ingest_s": "s", "market_train_s": "s", "action_fit_s": "s",
               "ddqn_train_s": "s", "fdqi_train_s": "s", "rlb_solve_s": "s",
               "linbid_tune_s": "s", "eval_steps_per_s": "steps/s", "mmd_s": "s"}


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[os.path.basename(path)] = int(fn())
                break
    return out


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


class Ops:
    """Stages and output checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.log = []

    def record(self, name, ok, detail="") -> bool:
        self.attempted += 1
        self.log.append(f"{'ok' if ok else 'FAILED'} {name}: {detail}")
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def checks(self, results) -> None:
        for name, ok, detail in results:
            self.record(name, ok, detail)


def host_reference() -> float:
    """Seconds of one fixed loop of small numpy calls driven from Python."""
    import numpy as np

    g = np.random.default_rng(0)
    a = g.standard_normal((32, 32)) / 6
    x = g.standard_normal(32)
    logp = np.log(np.full(12, 1 / 12))
    seen = {}
    start = time.perf_counter()
    for i in range(HOST_REF_ITERS):
        x = np.tanh(a @ x)
        z = logp - np.log(-np.log(g.random(12)))
        seen[i % 97] = int(np.argmax(z)) + seen.get(i % 89, 0) // 2
    return time.perf_counter() - start


def run_stage(stage, ops) -> float:
    """Run one `rtb` stage in this process; returns its wall time."""
    from rtblab.cli import main as rtb

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rtb(stage.argv)
    except SystemExit as exc:      # argparse rejected the arguments
        code = exc.code
    except Exception:  # noqa: BLE001 - a crashing stage is a failed operation
        code = traceback.format_exc()
    elapsed = time.perf_counter() - start
    ops.record(f"rtb {stage.argv[0]}", code == 0, f"exit {code} {err.getvalue()[-500:]}")
    return elapsed


def run_stages(stages, ops, tracer=None) -> list:
    """(metric group, seconds) of each stage in one list of stages."""
    times = []
    for st in stages:
        if tracer is None:
            dt = run_stage(st, ops)
        else:
            with tracer.span(f"stage.{st.argv[0]}"):
                dt = run_stage(st, ops)
        times.append((st.metric, dt))
    return times


def make_setup(wl, d, seed, ops) -> float:
    """Generate the seeded inputs and run the set-up stages into d."""
    from workloads import Stage, add_user_tags, synth_spec_text

    start = time.perf_counter()
    raw = os.path.join(d, "raw")
    spec = os.path.join(d, "synth.spec")
    os.makedirs(d)
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(synth_spec_text())
    run_stage(Stage("setup", ["synth", spec, "--out", raw, "--seed", str(seed)]), ops)
    if wl.tagged:
        add_user_tags(os.path.join(raw, "log.tsv"), seed)
    run_stages(wl.setup(raw, d, seed), ops)
    return time.perf_counter() - start


def check_outputs(d, setup_dir, ops) -> None:
    """Every check that applies to the artifacts found in d."""
    import checks
    from workloads import EVAL_AGENTS, EVAL_ALPHAS, EVAL_REPEATS, EVAL_T0

    ops.checks(checks.check_checkpoints(d))
    if os.path.exists(os.path.join(d, "rlb.ckpt")):
        ops.checks(checks.check_rlb(os.path.join(d, "rlb.ckpt")))
    for agent in EVAL_AGENTS:
        report = os.path.join(d, f"report-{agent}.tsv")
        if os.path.exists(report):
            stats = os.path.join(setup_dir, "data", "stats_test.txt")
            ops.checks(checks.check_report(report, stats, (agent,), EVAL_ALPHAS,
                                           EVAL_REPEATS, EVAL_T0))
    if os.path.exists(os.path.join(d, "mmd.tsv")):
        ops.checks(checks.check_mmd(os.path.join(d, "mmd.tsv")))


def run_workload(wl, seed, seconds, trace, work, spans_path=None) -> dict:
    """One run: set-ups, timed passes, checks; with trace, the per-layer pass
    (its spans written to spans_path)."""
    import checks

    t_begin = time.perf_counter()
    ops = Ops()
    setup_dir = os.path.join(work, "setup0")
    setup_times, ref = [], None
    n_min, n_max = (1, 1) if trace else (SETUP_MIN, SETUP_MAX)
    while len(setup_times) < n_min or (
            len(setup_times) < n_max and sum(setup_times) < SETUP_WINDOW_S):
        k = len(setup_times)
        d = os.path.join(work, f"setup{k}")
        setup_times.append(make_setup(wl, d, seed, ops))
        dg = checks.digests(d)
        if ref is None:
            ref = dg
            check_outputs(d, d, ops)
        else:
            ops.record(f"set-up {k} artifacts equal set-up 0", dg == ref)
            shutil.rmtree(d)

    # a traced run needs two untraced passes: the second runs warm, as the
    # traced one does, and is the baseline of the tracing overhead
    min_passes, window = (2, 0) if trace else (MIN_PASSES, seconds)
    passes, walls, ref, props, host_ref = [], [], None, None, []
    while len(passes) < min_passes or (
            sum(walls) < window and time.perf_counter() - t_begin < RUN_CAP_S):
        out = os.path.join(work, f"pass{len(passes)}")
        os.makedirs(out)
        host_ref.append(host_reference())
        passes.append(run_stages(wl.timed(setup_dir, out, seed), ops))
        walls.append(sum(dt for _, dt in passes[-1]))
        dg = checks.digests(out)
        if ref is None:
            ref = dg
            check_outputs(out, setup_dir, ops)
            data = os.path.join(out, "data")
            props = checks.input_properties(data if os.path.isdir(data)
                                            else os.path.join(setup_dir, "data"))
            expect = "> 0" if wl.tagged else "== 0"
            ops.record(f"input ragged share {expect}",
                       (props["ragged_share"] > 0) == wl.tagged, str(props["ragged_share"]))
        else:
            ops.record(f"pass {len(passes) - 1} artifacts equal pass 0", dg == ref)
        shutil.rmtree(out)

    result = {"workload": wl.name, "seed": seed, "trace": trace, "inputs": props,
              "passes": len(passes), "pass_walls_s": walls,
              "pass_stage_s": [[dt for _, dt in p] for p in passes],
              "setup_times_s": setup_times, "digests": ref}
    if trace:
        result["layers"], result["layer_calls"] = traced_pass(
            wl, seed, work, ops, ref, props, walls[-1], spans_path)
    else:
        # each stage at its fastest over the passes, scaled to the quiet
        # host: see "Bounds and noise" in README.md for why
        scale = HOST_REF_QUIET_S / min(host_ref)
        fastest = [min(p[i][1] for p in passes) for i in range(len(passes[0]))]
        stage = {}
        for (metric, _), dt in zip(passes[0], fastest):
            stage[metric] = stage.get(metric, 0.0) + dt * scale
        if "eval_s" in stage:
            from workloads import EVAL_STEPS
            stage["eval_steps_per_s"] = EVAL_STEPS / stage.pop("eval_s")
        result["stages"] = stage
        result["host"] = {"reference_s": host_ref, "scale": scale,
                          "measured_wall_s": sum(fastest)}
        result["end_to_end"] = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(fastest) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["attempted"] = ops.attempted
    result["failures"] = ops.failures
    result["ops"] = ops.log
    return result


def traced_pass(wl, seed, work, ops, ref, props, untraced_wall, spans_path) -> tuple:
    """One pass with every layer wrapped; returns the per-layer metrics and
    the call count of every wrapper."""
    import checks
    import spans

    out = os.path.join(work, "traced")
    os.makedirs(out)
    tracer = spans.Tracer()
    tracer.install()
    try:
        times = run_stages(wl.timed(os.path.join(work, "setup0"), out, seed), ops, tracer)
    finally:
        tracer.uninstall()
    left = spans.wrapped_bindings()
    ops.record("every wrapped name restored", not left, str(left))
    ops.record("traced artifacts equal untraced", checks.digests(out) == ref)
    if spans_path:
        tracer.write(spans_path)
    overhead = sum(dt for _, dt in times) - untraced_wall
    return spans.layer_metrics(tracer, props["ragged_share"], overhead), tracer.calls()


def summary_lines(result) -> list:
    lines = [f"workload {result['workload']} seed {result['seed']}: "
             f"{result['passes']} passes"]
    if result["inputs"]:
        lines.append("inputs " + json.dumps(result["inputs"]))
    if "host" in result:
        h = result["host"]
        lines.append(f"  host reference loop at best {min(h['reference_s']) * 1e3:.2f} ms "
                     f"(quiet {HOST_REF_QUIET_S * 1e3:.2f} ms): stage timings scaled by "
                     f"{h['scale']:.3f} from wall_s {h['measured_wall_s']:.4f} s as measured")
    for name, value in result.get("end_to_end", {}).items():
        lines.append(f"  {name:<20} {value:12.4f} {dict(END_TO_END)[name]}")
    for name, value in result.get("stages", {}).items():
        lines.append(f"  {name:<20} {value:12.4f} {STAGE_UNITS[name]}")
    if "eval_steps_per_s" in result.get("stages", {}):
        hours = PAPER_EVAL_STEPS / result["stages"]["eval_steps_per_s"] / 3600.0
        lines.append(f"  paper-profile evaluate estimate: 2e7 steps / eval_steps_per_s "
                     f"= {hours:.2f} h (derived, not a metric)")
    for name, (value, unit) in result.get("layers", {}).items():
        lines.append(f"  {name:<52} {value:14.6g} {unit}")
    failed = len(result["failures"])
    lines.append(f"  ops_failed {failed} of {result['attempted']} attempted")
    return lines


def final_json(result) -> dict:
    if result["trace"]:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": u} for k, u in END_TO_END}
    failed = len(result["failures"])
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process, then one table of every metric."""
    from workloads import WORKLOADS

    finals = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        finals[name] = json.loads(lines[-1])
    metrics = {f"{w}.{k}": v for w, f in finals.items() for k, v in f["metrics"].items()}
    print(json.dumps({
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rtblab", "cli.py")):
        print(f"error: no rtblab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)} or all")

    import rtblab.cli  # noqa: F401 - loads every module before any wrapping

    facts = machine_facts()
    work = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work,
                              os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.npz"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["machine"] = facts
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("machine " + json.dumps(facts, sort_keys=True))
    print("\n".join(summary_lines(result)))
    print(json.dumps(final_json(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
