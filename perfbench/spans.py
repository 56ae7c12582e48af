"""Span tracing from outside the program.

A `Tracer` wraps the public functions of each rtblab module for one
traced pass. Every call becomes a span (layer name, start, end, parent
span id), kept in compact arrays in memory and written out when the run
ends. Self time is a span's duration minus the part of its interval that
its child spans cover.

rtblab binds names with `from .autodiff import mlp_forward`, so a wrapper
replaces every binding of the original object in every loaded rtblab
module, not only the one in the defining module; methods are wrapped
once on their class. `uninstall` puts every original back.
"""

import contextlib
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

WRAPPED_MARK = "__perfbench_wrapped__"


def _rows(i):
    """rows_per_call extractor: length of positional argument i."""
    return lambda args, kwargs: len(args[i])


def _mlp_rows(args, kwargs):
    x = np.asarray(args[1])
    return 1 if x.ndim == 1 else x.shape[0]


def _count(key, fn):
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += fn(args, kwargs, result)
    return hook


def _dp_cells(args, kwargs, result):
    # one (t, b, action) evaluation: T * (B + 1) * k
    return int(args[1]) * (int(args[2]) + 1) * len(args[3])


def _episodes(args, kwargs, result):
    return kwargs.get("repeats", args[4] if len(args) > 4 else 0)


# (layer, module, attribute path, rows_per_call extractor, result hooks)
TARGETS = (
    ("data.parse_log", "rtblab.data", "parse_log", None, ()),
    ("data.SampleSet.from_records", "rtblab.data", "SampleSet.from_records", None, ()),
    ("data.SampleSet.load", "rtblab.data", "SampleSet.load", None, ()),
    ("data.PackedRequests.init", "rtblab.data", "PackedRequests.__init__", _rows(1), ()),
    ("data.PackedRequests.rows", "rtblab.data", "PackedRequests.rows", _rows(1), ()),
    ("data.PackedRequests.dot", "rtblab.data", "PackedRequests.dot", _rows(0), ()),
    ("data.PackedRequests.scatter", "rtblab.data", "PackedRequests.scatter", _rows(0), ()),
    ("data.PackedRequests.dense", "rtblab.data", "PackedRequests.dense", _rows(0), ()),
    ("autodiff.mlp_forward", "rtblab.autodiff", "mlp_forward", _mlp_rows, ()),
    ("autodiff.mlp_backward", "rtblab.autodiff", "mlp_backward", None, ()),
    ("autodiff.gradient_penalty", "rtblab.autodiff", "gradient_penalty", None, ()),
    ("autodiff.gumbel_softmax", "rtblab.autodiff", "gumbel_softmax", None, ()),
    ("optim.adam_step", "rtblab.optim", "adam_step", None, ()),
    ("market_state.train_market_state_model", "rtblab.market_state",
     "train_market_state_model", None,
     (_count("wgan_iters", lambda a, k, r: r[2].iterations),)),
    ("market_state.critic_loss", "rtblab.market_state", "critic_loss", None, ()),
    ("market_state.generator_loss", "rtblab.market_state", "generator_loss", None, ()),
    ("market_state.GeneratorSampler.sample_indices", "rtblab.market_state",
     "GeneratorSampler.sample_indices", lambda a, k: int(a[1]), ()),
    ("market_action.censored_nll", "rtblab.market_action", "censored_nll", None, ()),
    ("market_action.click_nll", "rtblab.market_action", "click_nll", None, ()),
    ("market_action._minibatch_fit", "rtblab.market_action", "_minibatch_fit", None,
     (_count("fit_epochs", lambda a, k, r: r[2]), _count("fits", lambda a, k, r: 1))),
    ("market_action.train_price_model", "rtblab.market_action", "train_price_model",
     None, (_count("kept", lambda a, k, r: 1),)),
    ("market_action.train_click_model", "rtblab.market_action", "train_click_model",
     None, (_count("kept", lambda a, k, r: 1),)),
    ("env.SimEnv.step", "rtblab.env", "SimEnv.step", None, ()),
    ("env.SimEnv.reset", "rtblab.env", "SimEnv.reset", None, ()),
    ("agents.q_values", "rtblab.agents.qnet", "q_values", None, ()),
    ("agents.q_forward", "rtblab.agents.qnet", "q_forward", _rows(1), ()),
    ("agents.q_backward", "rtblab.agents.qnet", "q_backward", None, ()),
    ("agents.ReplayBuffer.push", "rtblab.agents.replay", "ReplayBuffer.push", None, ()),
    ("agents.ReplayBuffer.sample", "rtblab.agents.replay", "ReplayBuffer.sample",
     None, ()),
    ("agents.batch_arrays", "rtblab.agents.replay", "batch_arrays", _rows(0), ()),
    ("agents.fdqi_build_transitions", "rtblab.agents.fdqi", "fdqi_build_transitions",
     None, ()),
    ("agents.train_ddqn", "rtblab.agents.ddqn", "train_ddqn", None,
     (_count("ddqn_steps", lambda a, k, r: r[1].steps),
      _count("ddqn_updates", lambda a, k, r: r[1].updates))),
    ("agents.rlb_dp_solve", "rtblab.agents.rlb", "rlb_dp_solve", None,
     (_count("dp_cells", _dp_cells),)),
    ("agents.rlb_act", "rtblab.agents.rlb", "rlb_act", None, ()),
    ("evaluate.evaluate_policy", "rtblab.evaluate", "evaluate_policy", None,
     (_count("aborted", lambda a, k, r: r.aborted), _count("episodes", _episodes))),
    ("evaluate.run_episode", "rtblab.evaluate", "run_episode", None, ()),
    ("mmd.mmd_estimate", "rtblab.mmd", "mmd_estimate", _rows(0), ()),
    ("checkpoint.save_checkpoint", "rtblab.checkpoint", "save_checkpoint", None,
     (_count("ckpt_bytes", lambda a, k, r: os.path.getsize(a[0])),)),
    ("checkpoint.load_checkpoint", "rtblab.checkpoint", "load_checkpoint", None, ()),
    ("rng.stream", "rtblab.rng", "stream", None, ()),
    ("rng.gumbel", "rtblab.rng", "gumbel", None, ()),
)


def _rtblab_modules() -> list:
    return [(n, m) for n, m in list(sys.modules.items())
            if m is not None and (n == "rtblab" or n.startswith("rtblab."))]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []                  # name id -> layer name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")          # perf_counter_ns
        self.end = array("q")
        self.rows = defaultdict(int)     # layer -> rows over all calls
        self.counters = defaultdict(float)
        self._stack = [-1]
        self._saved = []                 # (owner, attribute, original)

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name) -> int:
        sid = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def calls(self) -> dict:
        """Spans recorded per layer name."""
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32),
                             minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def _wrapper(self, layer, fn, rows, hooks):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if rows is not None:
                tracer.rows[layer] += rows(args, kwargs)
            for hook in hooks:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, WRAPPED_MARK, layer)
        return wrapper

    def install(self) -> None:
        """Wrap every target; rebinds each module-level function wherever
        an rtblab module holds it."""
        modules = [m for _, m in _rtblab_modules()]
        for layer, modname, path, rows, hooks in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrapper(layer, orig.__func__, rows, hooks))
                else:
                    new = self._wrapper(layer, orig, rows, hooks)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrapper(layer, orig, rows, hooks)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    reach, current = 0, -1
    for i in kids.tolist():
        p = int(parent[i])
        if p != current:
            current, reach = p, int(start[p])
        lo = max(int(start[i]), reach)
        hi = min(int(end[i]), int(end[p]))
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - covered


def wrapped_bindings() -> list:
    """Every (module or class, attribute) in rtblab still bound to a wrapper."""
    found = []
    for n, m in _rtblab_modules():
        for name, value in list(vars(m).items()):
            if hasattr(value, WRAPPED_MARK):
                found.append((n, name))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    fn = getattr(member, "__func__", member)
                    if hasattr(fn, WRAPPED_MARK):
                        found.append((f"{n}.{name}", attr))
    return found


# per-layer metrics: layer -> the stats reported for it
LAYER_STATS = (
    ("data.parse_log", ("self_s",)),
    ("data.SampleSet.from_records", ("self_s",)),
    ("data.SampleSet.load", ("self_s",)),
    ("data.PackedRequests.init", ("calls", "self_s")),
    ("data.PackedRequests.rows", ("calls", "self_s")),
    ("data.PackedRequests.dot", ("calls", "self_s", "rows_per_call")),
    ("data.PackedRequests.scatter", ("calls", "self_s")),
    ("data.PackedRequests.dense", ("self_s",)),
    ("autodiff.mlp_forward", ("calls", "self_s", "rows_per_call")),
    ("autodiff.mlp_backward", ("calls", "self_s")),
    ("autodiff.gradient_penalty", ("calls", "self_s")),
    ("autodiff.gumbel_softmax", ("calls", "self_s")),
    ("optim.adam_step", ("calls", "self_s")),
    ("market_state.critic_loss", ("self_s",)),
    ("market_state.generator_loss", ("self_s",)),
    ("market_state.GeneratorSampler.sample_indices",
     ("calls", "self_s", "rows_per_call", "p50_us", "p99_us")),
    ("market_action.censored_nll", ("calls", "self_s")),
    ("market_action.click_nll", ("calls", "self_s")),
    ("env.SimEnv.step", ("calls", "self_s", "p50_us", "p99_us")),
    ("env.SimEnv.reset", ("calls",)),
    ("agents.q_values", ("calls", "self_s", "p50_us")),
    ("agents.q_forward", ("calls", "self_s", "rows_per_call")),
    ("agents.q_backward", ("calls", "self_s")),
    ("agents.ReplayBuffer.push", ("calls", "self_s")),
    ("agents.ReplayBuffer.sample", ("calls", "self_s")),
    ("agents.batch_arrays", ("calls", "self_s")),
    ("agents.fdqi_build_transitions", ("self_s",)),
    ("agents.rlb_dp_solve", ("self_s",)),
    ("agents.rlb_act", ("calls", "p50_us")),
    ("evaluate.evaluate_policy", ("calls", "self_s")),
    ("evaluate.run_episode", ("p50_us", "p99_us")),
    ("mmd.mmd_estimate", ("calls", "self_s")),
    ("checkpoint.save_checkpoint", ("calls", "self_s")),
    ("checkpoint.load_checkpoint", ("calls", "self_s")),
    ("rng.stream", ("calls",)),
    ("rng.gumbel", ("calls", "self_s")),
)

STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
              "rows_per_call": ("rows", "higher"), "p50_us": ("us", "lower"),
              "p99_us": ("us", "lower")}

# metrics computed from counters the result hooks collect
DERIVED = (
    ("market_state.train_market_state_model.iter_ms", "ms", "lower"),
    ("market_action.fit_epochs", "count", "lower"),
    ("market_action.fit_kept_ratio", "ratio", "higher"),
    ("agents.rlb_dp_solve.ns_per_cell", "ns", "lower"),
    ("agents.ddqn.updates_per_step", "ratio", "higher"),
    ("evaluate.aborted_ratio", "ratio", "lower"),
    ("mmd.samples_per_estimate", "count", "higher"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("data.ragged_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, stats in LAYER_STATS:
        out += [(f"{layer}.{s}", *STAT_UNITS[s]) for s in stats]
    return out + list(DERIVED)


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def layer_metrics(tracer: Tracer, ragged_share: float, overhead_s: float) -> dict:
    """Every per-layer metric from one traced pass, as name -> (value, unit)."""
    arr = tracer.arrays()
    dur = arr["end_ns"] - arr["start_ns"]
    own = self_times(arr["start_ns"], arr["end_ns"], arr["parent"])
    by_layer = {}   # layer -> (calls, self ns, durations ns)
    for nid, name in enumerate(tracer.names):
        sel = arr["name_id"] == nid
        by_layer[name] = (int(sel.sum()), int(own[sel].sum()), dur[sel])
    empty = (0, 0, np.zeros(0, dtype=np.int64))

    def stat(layer, s):
        calls, own_ns, durs = by_layer.get(layer, empty)
        if s == "calls":
            return calls
        if s == "self_s":
            return own_ns / 1e9
        if s == "rows_per_call":
            return _ratio(tracer.rows[layer], calls)
        q = {"p50_us": 50, "p99_us": 99}[s]
        return float(np.percentile(durs, q)) / 1e3 if calls else 0.0

    out = {}
    for layer, stats in LAYER_STATS:
        for s in stats:
            out[f"{layer}.{s}"] = (stat(layer, s), STAT_UNITS[s][0])
    c = tracer.counters
    wgan_ns = by_layer.get("market_state.train_market_state_model", empty)[2].sum()
    dp_ns = by_layer.get("agents.rlb_dp_solve", empty)[2].sum()
    values = {
        "market_state.train_market_state_model.iter_ms": _ratio(wgan_ns / 1e6, c["wgan_iters"]),
        "market_action.fit_epochs": c["fit_epochs"],
        "market_action.fit_kept_ratio": _ratio(c["kept"], c["fits"]),
        "agents.rlb_dp_solve.ns_per_cell": _ratio(dp_ns, c["dp_cells"]),
        "agents.ddqn.updates_per_step": _ratio(c["ddqn_updates"], c["ddqn_steps"]),
        "evaluate.aborted_ratio": _ratio(c["aborted"], c["episodes"]),
        "mmd.samples_per_estimate": _ratio(tracer.rows["mmd.mmd_estimate"],
                                           stat("mmd.mmd_estimate", "calls")),
        "checkpoint.save_checkpoint.bytes": c["ckpt_bytes"],
        "data.ragged_share": ragged_share,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.start),
    }
    for name, unit, _ in DERIVED:
        out[name] = (float(values[name]), unit)
    return out
