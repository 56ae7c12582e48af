"""Self-tests for the phase benchmark.

    python3 -m pytest -q perfbench/tests

The traced-run tests run every workload twice in this process (about a
minute on a 2-core machine).
"""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# the workload on which each wrapper must record at least one call
EXERCISED = {
    "data.parse_log": "learn-market",
    "data.SampleSet.from_records": "learn-market",
    "data.SampleSet.load": "learn-market",
    "data.PackedRequests.init": "learn-market",
    "data.PackedRequests.rows": "learn-market",
    "data.PackedRequests.dot": "evaluate",
    "data.PackedRequests.scatter": "learn-market",
    "data.PackedRequests.dense": "learn-market",
    "autodiff.mlp_forward": "evaluate",
    "autodiff.mlp_backward": "train-agents",
    "autodiff.gradient_penalty": "learn-market",
    "autodiff.gumbel_softmax": "evaluate",
    "optim.adam_step": "train-agents",
    "market_state.train_market_state_model": "learn-market",
    "market_state.critic_loss": "learn-market",
    "market_state.generator_loss": "learn-market",
    "market_state.GeneratorSampler.sample_indices": "evaluate",
    "market_action.censored_nll": "learn-market",
    "market_action.click_nll": "learn-market",
    "market_action._minibatch_fit": "learn-market",
    "market_action.train_price_model": "learn-market",
    "market_action.train_click_model": "learn-market",
    "env.SimEnv.step": "evaluate",
    "env.SimEnv.reset": "train-agents",
    "agents.q_values": "evaluate",
    "agents.q_forward": "train-agents",
    "agents.q_backward": "train-agents",
    "agents.ReplayBuffer.push": "train-agents",
    "agents.ReplayBuffer.sample": "train-agents",
    "agents.batch_arrays": "train-agents",
    "agents.fdqi_build_transitions": "train-agents",
    "agents.train_ddqn": "train-agents",
    "agents.rlb_dp_solve": "train-agents",
    "agents.rlb_act": "evaluate",
    "evaluate.evaluate_policy": "evaluate",
    "evaluate.run_episode": "evaluate",
    "mmd.mmd_estimate": "evaluate",
    "checkpoint.save_checkpoint": "train-agents",
    "checkpoint.load_checkpoint": "evaluate",
    "rng.stream": "learn-market",
    "rng.gumbel": "evaluate",
}


def test_self_time_on_hand_built_tree():
    # 0 root [0, 100]; 1 [10, 40] and 2 [30, 60] overlap; 3 [15, 20] under 1;
    # 4 [90, 120] runs past its parent's end
    start = [0, 10, 30, 15, 90]
    end = [100, 40, 60, 20, 120]
    parent = [-1, 0, 0, 1, 0]
    got = spans.self_times(start, end, parent).tolist()
    # root: 100 - |[10, 60] u [90, 100]| = 40; span 1: 30 - 5
    assert got == [40, 25, 30, 5, 30]


def test_self_time_of_sequential_children_matches_subtraction():
    start = [0, 1, 4, 9]
    end = [10, 3, 8, 10]
    assert spans.self_times(start, end, [-1, 0, 0, 0]).tolist() == [10 - 2 - 4 - 1, 2, 4, 1]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = _benchmark_json()
    names = ([m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
             + [w["name"] for w in spec["workloads"]] + list(run.STAGE_UNITS))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        spans.per_layer_specs()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_wrapper_has_a_workload_that_exercises_it():
    assert sorted(EXERCISED) == sorted(t[0] for t in spans.TARGETS)


def _rtblab_bindings():
    import rtblab.cli  # noqa: F401

    out = {}
    for n, m in list(sys.modules.items()):
        if m is not None and (n == "rtblab" or n.startswith("rtblab.")):
            for k, v in vars(m).items():
                out[(n, k)] = v
                if isinstance(v, type):
                    for attr, member in vars(v).items():
                        out[(n, k, attr)] = member
    return out


def test_uninstall_restores_every_wrapped_name():
    before = _rtblab_bindings()
    from rtblab.agents import ddqn, qnet

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ddqn.q_forward is qnet.q_forward  # rebound in the importer too
        assert hasattr(qnet.q_forward, spans.WRAPPED_MARK)
    finally:
        tracer.uninstall()
    assert spans.wrapped_bindings() == []
    after = _rtblab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of seed 3 for every workload."""
    out = {}
    for name, wl in WORKLOADS.items():
        out[name] = [run.run_workload(wl, 3, 1, True,
                                      str(tmp_path_factory.mktemp(f"{name}-{k}")))
                     for k in range(2)]
    return out


def test_traced_runs_pass_every_check(traced_runs):
    for name, (first, second) in traced_runs.items():
        assert first["failures"] == [] and second["failures"] == [], name
        assert first["digests"] == second["digests"], name
        assert spans.wrapped_bindings() == []


def test_each_wrapper_records_calls_on_its_workload(traced_runs):
    for layer, workload in EXERCISED.items():
        calls = traced_runs[workload][0]["layer_calls"].get(layer, 0)
        assert calls > 0, f"{layer} saw no call on {workload}"


def test_call_counts_repeat_between_traced_runs(traced_runs):
    for name, (first, second) in traced_runs.items():
        assert first["layer_calls"] == second["layer_calls"], name
        counts = {k: v for k, (v, unit) in first["layers"].items() if unit == "count"}
        again = {k: v for k, (v, unit) in second["layers"].items() if unit == "count"}
        assert counts == again, name


def test_per_layer_metrics_are_complete_numbers(traced_runs):
    want = [n for n, _, _ in spans.per_layer_specs()]
    for name, (first, _) in traced_runs.items():
        assert list(first["layers"]) == want, name
        assert all(np.isfinite(v) for v, _ in first["layers"].values()), name
