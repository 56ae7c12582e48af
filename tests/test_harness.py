import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtblab
from rtblab import checkpoint as ckpt
from rtblab.agents import (
    ActionGrid,
    DpTables,
    GreedyQAgent,
    LinBidAgent,
    QNetwork,
    RlbAgent,
    q_forward,
    rlb_dp_solve,
)
from rtblab.agents.qnet import q_values
from rtblab.cli import build_parser, main as cli_main
from rtblab.config import KEYS, Choice, Number, config_lines, effective_config
from rtblab.autodiff import DenseLayer, DimensionError, Mlp
from rtblab.data import DEFAULT_SCHEMA, PackedRequests, PriceHistogram, SampleSet, load_schema
from rtblab.errors import ConfigError, DataError
from rtblab.evaluate import (
    ResultRow,
    ResultTable,
    budget_sweep,
    evaluate_policy,
    format_pm,
    read_report_tsv,
    write_report,
)
from rtblab.market_action import ClickModel, PriceModel
from rtblab.market_state import (
    EmpiricalSampler,
    Generator,
    UniformSampler,
    WganConfig,
    build_critic,
    build_generator,
)
from rtblab.mmd import mmd_benchmark, mmd_estimate
from rtblab.rng import stream
from rtblab.synth import SynthSpec, generate_synthetic_market, synth_feature_dict


def onehots(cats, width):
    return PackedRequests(np.asarray(cats, dtype=np.int64)[:, None], width)


class TestMmdEstimate:
    def test_identical_sets_zero(self):
        reqs = onehots([0, 1, 2, 0, 1], 4)
        assert mmd_estimate(reqs, reqs) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_closed_form(self):
        # n copies of u vs n copies of v at squared distance 2 (two one-hots)
        n = 16
        xs = onehots([0] * n, 3)
        ys = onehots([1] * n, 3)
        want = np.sqrt(n) * np.sqrt(2.0 - 2.0 * np.exp(-2.0 / 2.0))
        assert mmd_estimate(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_naive_double_loop_oracle(self):
        rng = stream(130, "mmd")
        n, width = 200, 9
        fdict = synth_feature_dict((3, 4))
        xs = PackedRequests.from_rows([[rng.integers(0, 3), 4 + rng.integers(0, 4)]
                                       for _ in range(n)], fdict.width)
        ys = PackedRequests.from_rows([[rng.integers(0, 3), 4 + rng.integers(0, 4)]
                                       for _ in range(n)], fdict.width)
        sigma = 1.0
        xd = xs.dense()
        yd = ys.dense()

        def k(u, v):
            return np.exp(-np.sum((u - v) ** 2) / (2 * sigma * sigma))

        kxx = np.mean([[k(a, b) for b in xd] for a in xd])
        kyy = np.mean([[k(a, b) for b in yd] for a in yd])
        kxy = np.mean([[k(a, b) for b in yd] for a in xd])
        want = np.sqrt(n) * np.sqrt(max(kxx + kyy - 2 * kxy, 0.0))
        assert abs(mmd_estimate(xs, ys, sigma) - want) <= 1e-10

    def test_symmetry_and_nonnegativity(self):
        rng = stream(131, "mmd")
        xs = onehots(rng.integers(0, 3, size=20), 5)
        ys = onehots(rng.integers(2, 5, size=20), 5)
        assert mmd_estimate(xs, ys) == pytest.approx(mmd_estimate(ys, xs), abs=1e-12)
        assert mmd_estimate(xs, ys) >= 0.0


class TestMmdBenchmark:
    def corpus(self):
        spec = SynthSpec(
            field_dims=(3, 4),
            mixture_weights=(0.5, 0.5),
            mixture_probs=(
                ((0.94, 0.04, 0.02), (0.9, 0.034, 0.033, 0.033)),
                ((0.02, 0.04, 0.94), (0.034, 0.033, 0.033, 0.9)),
            ),
            price_mu=(((0.0,) * 3, (0.0,) * 4), 10.0),
            price_logsig=(((0.0,) * 3, (0.0,) * 4), 0.0),
            logging_bid=(20.0, 20.0),
        )
        return generate_synthetic_market(spec, 3000, stream(132, "mkt"))

    def test_uniform_sampler_is_far(self):
        market = self.corpus()
        reqs = market.samples.requests
        samplers = {
            "test": EmpiricalSampler(reqs, stream(133, "t")),
            "uniform": UniformSampler(market.fdict, stream(133, "u")),
        }
        rows = mmd_benchmark(reqs, samplers, n=200, repeats=20,
                             rng=stream(133, "ref"))
        assert rows["test"][0] > 0.0  # finite-sample bias is positive
        assert rows["uniform"][0] >= 5.0 * rows["test"][0]

    def test_huge_sigma_flattens_kernel(self):
        market = self.corpus()
        reqs = market.samples.requests
        samplers = {"uniform": UniformSampler(market.fdict, stream(134, "u"))}
        rows = mmd_benchmark(reqs, samplers, n=50, repeats=5, sigma=1e6,
                             rng=stream(134, "ref"))
        assert rows["uniform"][0] == pytest.approx(0.0, abs=1e-3)


def arange_mlp(dims, acts, start=0):
    """An Mlp whose weights and biases are consecutive np.arange values."""
    layers = []
    for n_in, n_out, act in zip(dims, dims[1:], acts):
        w = (np.arange(n_in * n_out, dtype=np.float64).reshape(n_in, n_out) + start) / 8
        b = (np.arange(n_out, dtype=np.float64) - start) / 4
        layers.append(DenseLayer(w, b, act))
        start += n_in * n_out + n_out
    return Mlp(layers)


def arange_checkpoints(root):
    """Write one checkpoint of every kind, built from np.arange values;
    returns {file name: agent} of the agent checkpoints."""
    cfg = {"seed": "1", "t0": "50"}
    gen = Generator(arange_mlp([3, 4, 5], ["relu", "identity"]), ((0, 2), (2, 5)), 3)
    critic = arange_mlp([5, 4, 1], ["tanh", "identity"], 7)
    price = PriceModel(np.arange(5.0) / 2, 30.0, -np.arange(5.0) / 10, 1.5)
    click = ClickModel(np.arange(5.0) / 5 - 0.5, -2.0)
    qnet = QNetwork(np.arange(5.0) / 3, np.array([0.5]), arange_mlp([3, 4], ["relu"], 1),
                    arange_mlp([4, 2, 1], ["relu", "identity"], 2),
                    arange_mlp([4, 2, 3], ["relu", "identity"], 3))
    grid = ActionGrid(np.arange(1.0, 4.0))
    tables = DpTables(np.arange(12.0).reshape(3, 4) / 2,
                      np.arange(12, dtype=np.int32).reshape(3, 4) % 3, 2, 3)
    ckpt.save_market_state(root / "market.ckpt", gen, critic, "train", "d1", cfg, 7)
    ckpt.save_price_model(root / "price.ckpt", price, "train", "d2", cfg)
    ckpt.save_click_model(root / "click.ckpt", click, "test", "d3", cfg)
    agents = {
        "exddqn.ckpt": ("exddqn", GreedyQAgent(qnet, grid), {}),
        "fdqi.ckpt": ("fdqi", GreedyQAgent(qnet, grid), {}),
        "linbid.ckpt": ("linbid", LinBidAgent(2.5), {}),
        "linbid_click.ckpt": ("linbid", LinBidAgent(2.5, "click", click, 0.125), {}),
        "rlb.ckpt": ("rlb", RlbAgent(tables, grid), {"histogram_hash": "h"}),
    }
    for name, (agent_type, agent, fields) in agents.items():
        ckpt.save_agent(root / name, agent_type, agent, cfg, **fields)
    return {name: agent for name, (_, agent, _) in agents.items()}


class TestCheckpointContainer:
    def test_save_load_save_byte_identical(self, tmp_path):
        rng = stream(135, "ck")
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
        p1, p2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
        ckpt.save_checkpoint(p1, {"type": "test", "note": "x"}, arrays)
        manifest, loaded = ckpt.load_checkpoint(p1)
        assert manifest["type"] == "test"
        for k in arrays:
            assert np.array_equal(arrays[k], loaded[k])
        ckpt.save_checkpoint(p2, manifest, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_fails_hash(self, tmp_path):
        p = tmp_path / "c.ckpt"
        ckpt.save_checkpoint(p, {"type": "test"}, {"a": np.arange(10.0)})
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(DataError):
            ckpt.load_checkpoint(p)

    def test_unknown_version_rejected(self, tmp_path):
        p = tmp_path / "c.ckpt"
        p.write_bytes(b"rtbckpt 99\n{}\n")
        with pytest.raises(DataError):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize("header", [b"not json", b"[]"])
    def test_malformed_header_rejected(self, tmp_path, header):
        p = tmp_path / "c.ckpt"
        p.write_bytes(b"rtbckpt 1\n" + header + b"\n")
        with pytest.raises(DataError, match="c.ckpt"):
            ckpt.load_checkpoint(p)

    def test_rlb_policy_round_trips_as_int32(self, tmp_path):
        probs = stream(137, "ck").dirichlet(np.ones(30))
        grid = ActionGrid.from_max_price(29.0, k=20)
        tables = rlb_dp_solve(PriceHistogram(probs), 12, 40, grid)
        path = tmp_path / "rlb.ckpt"
        ckpt.save_agent(path, "rlb", RlbAgent(tables, grid), {"seed": 1}, histogram_hash="h")
        manifest, arrays = ckpt.load_checkpoint(path)
        assert np.array_equal(arrays["value"], tables.value)
        assert arrays["value"].dtype == np.float64
        assert arrays["policy"].dtype == np.int32
        assert np.array_equal(arrays["policy"], tables.policy)
        agent, _ = ckpt.load_agent(path)
        assert np.array_equal(agent.tables.value, tables.value)
        assert np.array_equal(agent.tables.policy, tables.policy)
        # the same arrays with a float64 policy: 4 more bytes per policy cell
        wide = tmp_path / "wide.ckpt"
        ckpt.save_checkpoint(wide, manifest, {**arrays, "policy": arrays["policy"] * 1.0})
        grown = os.path.getsize(wide) - os.path.getsize(path)
        assert grown == 4 * tables.policy.size

    def test_entry_without_dtype_reads_as_float64(self, tmp_path):
        values = np.arange(6.0).reshape(2, 3) - 2.5
        payload = values.astype("<f8").tobytes()
        head = {"type": "test", "arrays": [{"name": "a", "shape": [2, 3]}],
                "sha256": hashlib.sha256(payload).hexdigest()}
        p = tmp_path / "old.ckpt"
        p.write_bytes(f"{ckpt.MAGIC}\n{json.dumps(head)}\n".encode() + payload)
        manifest, arrays = ckpt.load_checkpoint(p)
        assert manifest == {"type": "test"}
        assert arrays["a"].dtype == np.float64
        assert np.array_equal(arrays["a"], values)
        head["arrays"][0]["dtype"] = "<f2"
        p.write_bytes(f"{ckpt.MAGIC}\n{json.dumps(head)}\n".encode() + payload)
        with pytest.raises(DataError):
            ckpt.load_checkpoint(p)

    def write_raw(self, path, directory, payload):
        """A container whose hash holds but whose directory may not fit."""
        head = {"type": "test", "sha256": hashlib.sha256(payload).hexdigest()}
        if directory is not None:
            head["arrays"] = directory
        path.write_bytes(f"{ckpt.MAGIC}\n{json.dumps(head)}\n".encode() + payload)

    def test_entry_larger_than_payload_rejected(self, tmp_path):
        p = tmp_path / "big.ckpt"
        self.write_raw(p, [{"name": "a", "shape": [3, 3], "dtype": "<f8"}],
                       np.arange(6.0).tobytes())
        with pytest.raises(DataError, match="big.ckpt"):
            ckpt.load_checkpoint(p)

    def test_header_without_directory_rejected(self, tmp_path):
        p = tmp_path / "nodir.ckpt"
        self.write_raw(p, None, np.arange(6.0).tobytes())
        with pytest.raises(DataError, match="nodir.ckpt"):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize("entry", [{"shape": [2]}, {"name": "a"}, "a"])
    def test_malformed_directory_entry_rejected(self, tmp_path, entry):
        p = tmp_path / "entry.ckpt"
        self.write_raw(p, [entry], np.arange(2.0).tobytes())
        with pytest.raises(DataError, match="entry.ckpt"):
            ckpt.load_checkpoint(p)

    @pytest.mark.parametrize("edit", [
        {"shape": ["a"]}, {"shape": [-2, -3]}, {"shape": [2.5, 2]},
        {"shape": [[2, 3]]}, {"shape": [True, 6]}, {"shape": 6}, {"name": ["x"]},
        {"name": 3},
    ], ids=repr)
    def test_edited_directory_entry_rejected(self, tmp_path, edit):
        # the payload hash does not cover the header, so an edited entry
        # reaches the directory check with a good hash
        p = tmp_path / "edited.ckpt"
        entry = {"name": "a", "shape": [2, 3], "dtype": "<f8", **edit}
        self.write_raw(p, [entry], np.arange(6.0).tobytes())
        with pytest.raises(DataError, match="edited.ckpt"):
            ckpt.load_checkpoint(p)

    def test_agent_with_edited_entry_rejected(self, tmp_path):
        p = tmp_path / "agent.ckpt"
        self.write_raw(p, [{"name": "b0", "shape": [True], "dtype": "<f8"}],
                       np.array([2.5]).tobytes())
        with pytest.raises(DataError, match="agent.ckpt"):
            ckpt.load_agent(p)

    @pytest.mark.parametrize("directory", [
        [{"name": "value", "shape": [10**12], "dtype": "<f8"}],
        [{"name": "value", "shape": [10**6, 10**6], "dtype": "<f8"}],
        [{"name": "value", "shape": [3, 10**40], "dtype": "<f8"}],
        [{"name": "a", "shape": [2], "dtype": "<f8"},
         {"name": "value", "shape": [10**12], "dtype": "<i4"}],
    ], ids=["one", "product", "past_int64", "second_entry"])
    def test_huge_shape_rejected_before_allocation(self, tmp_path, monkeypatch, directory):
        p = tmp_path / "huge.ckpt"
        self.write_raw(p, directory, np.arange(6.0).tobytes())

        def no_allocation(*args, **kwargs):
            raise AssertionError("an array was allocated")

        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(DataError, match="huge.ckpt: array 'value' runs past the end"):
            ckpt.load_checkpoint(p)

    def test_zero_size_shape_numpy_cannot_hold_rejected(self, tmp_path):
        p = tmp_path / "zero.ckpt"
        self.write_raw(p, [{"name": "a", "shape": [0, 2**70], "dtype": "<f8"}], b"")
        with pytest.raises(DataError, match="zero.ckpt"):
            ckpt.load_checkpoint(p)

    def test_flipped_payload_byte_fails_hash(self, tmp_path):
        p = tmp_path / "flip.ckpt"
        ckpt.save_checkpoint(p, {"type": "test"}, {"a": np.arange(10.0)})
        raw = bytearray(p.read_bytes())
        raw[-3] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="flip.ckpt: integrity hash mismatch"):
            ckpt.load_checkpoint(p)

    def test_unclaimed_payload_bytes_rejected(self, tmp_path):
        p = tmp_path / "tail.ckpt"
        self.write_raw(p, [{"name": "a", "shape": [2], "dtype": "<f8"}],
                       np.arange(3.0).tobytes())
        with pytest.raises(DataError, match="tail.ckpt"):
            ckpt.load_checkpoint(p)

    def test_integer_array_beyond_int32_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ckpt.save_checkpoint(tmp_path / "c.ckpt", {"type": "test"},
                                 {"a": np.array([0, 2**31])})

    def test_histogram_hash_describes_histogram(self):
        a = PriceHistogram(np.array([0.25, 0.5, 0.25]))
        b = PriceHistogram(np.array([0.5, 0.25, 0.25]))
        assert ckpt.hash_histogram(a) == ckpt.hash_histogram(
            PriceHistogram(np.array([0.25, 0.5, 0.25])))
        assert ckpt.hash_histogram(a) != ckpt.hash_histogram(b)
        assert ckpt.hash_histogram(a) != ckpt.hash_histogram(PriceHistogram(np.zeros(0)))

    def test_request_hash_is_pinned(self):
        # digests of the per-row hash this one-pass hash replaced
        onehot = PackedRequests.from_rows([[0, 3], [1, 4], [2, 3], [0, 4]], 5)
        ragged = PackedRequests.from_rows([[0, 2], [], [1], [0, 1, 3]], 4)
        assert ckpt.hash_requests(onehot) == "2a4f57ec0e1154ed"
        assert ckpt.hash_requests(ragged) == "9cc02e73541b9e8f"

    def test_qnet_agent_replay_oracle(self, tmp_path):
        # a fresh process (simulated by reload) reproduces q outputs exactly
        rng = stream(136, "ck")
        qnet = QNetwork.build(6, rng, n_actions=5, shared=8, branch=4)
        grid = ActionGrid.from_max_price(10.0, k=5)
        path = tmp_path / "agent.ckpt"
        ckpt.save_agent(path, "exddqn", GreedyQAgent(qnet, grid), {"seed": 1})
        agent, manifest = ckpt.load_agent(path)
        assert manifest["agent_type"] == "exddqn"
        packed = onehots(rng.integers(0, 6, size=100), 6)
        b = rng.random(100)
        t = rng.random(100)
        q0 = q_forward(qnet, packed, b, t)
        q1 = q_forward(agent.qnet, packed, b, t)
        assert np.array_equal(q0, q1)
        loaded = agent.qnet
        assert np.array_equal(loaded.params, qnet.params)
        parts = [loaded.f1_w, loaded.f1_b] + [
            a for net in (loaded.trunk, loaded.value, loaded.advantage)
            for lay in net.layers for a in (lay.w, lay.b)]
        assert all(np.shares_memory(a, loaded.params) for a in parts)

    def test_float32_q_agent_is_stored_and_read_as_float32(self, tmp_path):
        qnet = QNetwork.build(6, stream(139, "ck"), n_actions=5, shared=8, branch=4)
        assert qnet.params.dtype == np.float32
        path = tmp_path / "agent.ckpt"
        ckpt.save_agent(path, "exddqn", GreedyQAgent(qnet, ActionGrid.from_max_price(10.0, k=5)),
                        {"seed": 1})
        with open(path, "rb") as fh:
            fh.readline()
            directory = json.loads(fh.readline())["arrays"]
        dtypes = {e["name"]: e["dtype"] for e in directory}
        assert dtypes.pop("grid") == "<f8"
        assert set(dtypes.values()) == {"<f4"}
        loaded = ckpt.load_agent(path)[0].qnet
        assert loaded.params.dtype == np.float32
        assert np.array_equal(loaded.params, qnet.params)
        parts = [loaded.f1_w, loaded.f1_b] + [
            a for net in (loaded.trunk, loaded.value, loaded.advantage)
            for lay in net.layers for a in (lay.w, lay.b)]
        assert all(a.dtype == np.float32 and np.shares_memory(a, loaded.params)
                   for a in parts)

    def test_float64_q_checkpoint_keeps_its_q_values(self, tmp_path):
        # a float64 Q net (as every exddqn checkpoint written before the Q
        # nets became float32) loads as float64 and acts on the bits its
        # parent tree gave: the digest was recorded there
        arange_checkpoints(tmp_path)
        qnet = ckpt.load_agent(tmp_path / "exddqn.ckpt")[0].qnet
        assert qnet.params.dtype == np.float64
        h = hashlib.sha256()
        for hot, b, t in ((0, 0.5, 1.0), (2, 1.25, 0.3), (4, 0.0, 0.05)):
            obs = SimpleNamespace(request=onehots([hot], 5), budget_norm=b, time_norm=t)
            q = q_values(qnet, obs)
            assert q.dtype == np.float64
            h.update(q.tobytes())
        assert h.hexdigest() == (
            "b3b7116c6c23dc2cd86f58df9640ce2bd5c4e796c089482d9b6ddc92597d8500")

    def test_market_state_round_trip(self, tmp_path):
        fdict = synth_feature_dict((2, 2))
        cfg = WganConfig(z_dim=4, gen_hidden=(6,), critic_hidden=(6,))
        gen = build_generator(fdict, cfg, stream(137, "g"))
        critic = build_critic(fdict.width, cfg, stream(137, "c"))
        path = tmp_path / "m.ckpt"
        ckpt.save_market_state(path, gen, critic, "test", "hash", {"wgan_tau": 0.667}, 42)
        gen2, critic2, manifest = ckpt.load_market_state(path)
        assert manifest["iterations"] == 42
        assert gen2.slices == gen.slices
        for net, net2 in ((gen.net, gen2.net), (critic, critic2)):
            assert np.array_equal(net.params, net2.params)
            for lay in net2.layers:
                assert np.shares_memory(lay.w, net2.params)
                assert np.shares_memory(lay.b, net2.params)

    def test_float32_market_state_is_stored_and_read_as_float32(self, tmp_path):
        fdict = synth_feature_dict((2, 3))
        cfg = WganConfig(z_dim=3, gen_hidden=(5,), critic_hidden=(4,))
        gen = build_generator(fdict, cfg, stream(138, "g"))
        critic = build_critic(fdict.width, cfg, stream(138, "c"))
        path = tmp_path / "m.ckpt"
        ckpt.save_market_state(path, gen, critic, "train", "hash", {}, 1)
        with open(path, "rb") as fh:
            fh.readline()
            directory = json.loads(fh.readline())["arrays"]
        assert {entry["dtype"] for entry in directory} == {"<f4"}
        payload = path.read_bytes().split(b"\n", 2)[2]   # after the two header lines
        assert len(payload) == 4 * (gen.net.params.size + critic.params.size)
        gen2, critic2, _ = ckpt.load_market_state(path)
        for net, net2 in ((gen.net, gen2.net), (critic, critic2)):
            assert net2.params.dtype == np.float32
            assert np.array_equal(net.params, net2.params)
            assert all(np.shares_memory(a, net2.params)
                       for lay in net2.layers for a in (lay.w, lay.b))

    # sha256 of each kind's file, recorded with the per-kind agent writers
    # that save_agent replaced: any change to a format fails here
    PINNED = {
        "click.ckpt": "15313385651a4e934b8170d2905812692ac8744545c2dd51650bd53172b981bb",
        "exddqn.ckpt": "017149a65b92102b8f514d1d31e7ee901a0fffe27866055e9eb8930ec1588283",
        "fdqi.ckpt": "3a732a912bd72795ed97c93b253ed6ede3e01ab7955bb575e4e1a63166623050",
        "linbid.ckpt": "78b40d56908dee58e643fbaa8aac96c7dc4ccb6367f4293fa20880e1c7838c32",
        "linbid_click.ckpt":
            "c6ef3c85d46e5165fd2ba49e166e379303e569576c3818122318ac74a0e552ee",
        "market.ckpt": "4376b2f8770e2e434303098375d780291c67122572d33a03f72a63872063fb58",
        "price.ckpt": "ab1d8788865d3f56eec85702e1b866f026c5fc431142d5cf958de4d2353469c9",
        "rlb.ckpt": "e738d83b06bcaa2f864ba7a081fbdab64399b50d21ddddb7e046d99c55105f13",
    }

    def test_every_kind_is_pinned(self, tmp_path):
        arange_checkpoints(tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == self.PINNED

    @pytest.mark.parametrize("name", ["linbid.ckpt", "linbid_click.ckpt"])
    def test_linbid_round_trip(self, tmp_path, name):
        saved = arange_checkpoints(tmp_path)[name]
        agent, manifest = ckpt.load_agent(tmp_path / name)
        assert (manifest["agent_type"], manifest["split"]) == ("linbid", "train")
        assert manifest["utility"] == saved.utility
        assert (agent.b0, agent.utility, agent.avg_ctr) == (
            saved.b0, saved.utility, saved.avg_ctr)
        if saved.utility == "impression":
            assert agent.click_model is None and "avg_ctr" not in manifest
        else:
            assert np.array_equal(agent.click_model.w, saved.click_model.w)
            assert agent.click_model.b == saved.click_model.b

    LOADERS = {
        "market.ckpt": (ckpt.load_market_state, "a market-state"),
        "price.ckpt": (ckpt.load_price_model, "a price-model"),
        "click.ckpt": (ckpt.load_click_model, "a click-model"),
        "rlb.ckpt": (ckpt.load_agent, "an agent"),
    }

    @pytest.mark.parametrize("own", sorted(LOADERS))
    def test_loader_refuses_another_kind(self, tmp_path, own):
        arange_checkpoints(tmp_path)
        load, what = self.LOADERS[own]
        load(tmp_path / own)
        for other in self.LOADERS.keys() - {own}:
            with pytest.raises(DataError, match=f"{other} is not {what} checkpoint"):
                load(tmp_path / other)

    KIND_LOADERS = {"market.ckpt": ckpt.load_market_state,
                    "price.ckpt": ckpt.load_price_model, "click.ckpt": ckpt.load_click_model,
                    **dict.fromkeys(["exddqn.ckpt", "fdqi.ckpt", "linbid.ckpt",
                                     "linbid_click.ckpt", "rlb.ckpt"], ckpt.load_agent)}

    @pytest.mark.parametrize("name", sorted(KIND_LOADERS))
    def test_header_byte_edit_loads_or_is_a_data_error(self, tmp_path, name):
        # the payload hash does not cover the header: a file with one byte
        # of its header changed loads, or is refused with a DataError
        arange_checkpoints(tmp_path)
        raw = (tmp_path / name).read_bytes()
        header = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        path = tmp_path / "edited.ckpt"
        load = self.KIND_LOADERS[name]

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(st.integers(0, header - 1), st.integers(0, 255))
        def load_edited(pos, byte):
            path.write_bytes(raw[:pos] + bytes([byte]) + raw[pos + 1 :])
            try:
                load(path)
            except DataError:
                pass

        load_edited()

    def test_unknown_agent_type_rejected(self, tmp_path):
        arange_checkpoints(tmp_path)
        manifest, arrays = ckpt.load_checkpoint(tmp_path / "rlb.ckpt")
        path = tmp_path / "oracle.ckpt"
        ckpt.save_checkpoint(path, {**manifest, "agent_type": "oracle"}, arrays)
        with pytest.raises(DataError, match="unknown agent_type 'oracle'"):
            ckpt.load_agent(path)


class TestReports:
    def test_single_row(self, tmp_path):
        table = ResultTable(rows=[ResultRow("linbid", 1.0, 40.084, 0.10, 207.0, 10)])
        path = tmp_path / "r.tsv"
        write_report(table, path, "tsv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("agent\t")
        assert len(lines) == 2

    def test_tsv_round_trip(self, tmp_path):
        table = ResultTable(rows=[
            ResultRow("a", 0.25, 12.345, 0.678, 100.0, 10),
            ResultRow("b", 4.0, 99.999, 1.234, 2070.0, 10),
        ])
        path = tmp_path / "r.tsv"
        write_report(table, path, "tsv")
        rows = read_report_tsv(path)
        for got, want in zip(rows, table.rows):
            assert got.agent == want.agent
            assert got.alpha == want.alpha
            assert got.reward_pct == pytest.approx(want.reward_pct, abs=0.005)
            assert got.std_pct == pytest.approx(want.std_pct, abs=0.005)

    def test_paper_style_pm_formatting(self):
        assert format_pm(40.084, 0.10) == "40.08 ± 0.1"
        assert format_pm(12.0, 0.15) == "12.00 ± 0.15"

    def test_text_format_and_config_echo(self, tmp_path):
        table = ResultTable(rows=[ResultRow("rlb", 1.0, 20.0, 0.5, 10.0, 3)],
                            config_echo=["seed = 1"])
        path = tmp_path / "r.txt"
        write_report(table, path, "text")
        text = path.read_text()
        assert "±" in text and "# seed = 1" in text


class TestConfig:
    def test_profiles_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("t0 = 500\n# comment\nrepeats = 3\n")
        cfg = effective_config("desk", cfg_file, ["seed=9", "alphas=0.5, 2"])
        assert (cfg["t0"], cfg["repeats"], cfg["seed"]) == (500, 3, 9)
        assert cfg["alphas"] == (0.5, 2.0)
        assert cfg["wgan_gen_hidden"] == (64, 64, 32)
        assert cfg["utility"] == "impression" and cfg["profile"] == "desk"
        # the echo keeps each value as given
        assert (cfg.text["t0"], cfg.text["alphas"], cfg.text["ddqn_lr"]) == (
            "500", "0.5, 2", "1e-3")

    def test_paper_profile_scale(self):
        cfg = effective_config("paper")
        desk = effective_config("desk")
        assert cfg["t0"] == 100_000
        assert cfg["ddqn_total_steps"] == 5_000_000
        assert cfg["alphas"] == (0.25, 0.5, 1.0, 2.0, 4.0)
        overrides = {
            "t0": "100000", "min_count": "500", "ddqn_total_steps": "5000000",
            "ddqn_workers": "16", "ddqn_eps_scale": "500000",
            "ddqn_target_sync": "5000", "wgan_batch": "1024",
            "wgan_gen_hidden": "256,256,128", "wgan_critic_hidden": "256,256,128",
            "rlb_horizon": "1000",
        }
        assert cfg.text.keys() == desk.text.keys() == {*KEYS, "profile"}
        assert {k: v for k, v in cfg.text.items() if desk.text[k] != v} == {
            **overrides, "profile": "paper"}

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigError):
            effective_config("galactic")

    def test_config_lines_sorted(self):
        lines = config_lines({"b": "2", "a": "1"})
        assert lines == ["a = 1", "b = 2"]


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples")
with open(os.path.join(EXAMPLES, "desk.spec"), encoding="utf-8") as fh:
    SYNTH_SPEC = fh.read()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    spec = root / "spec.txt"
    spec.write_text(SYNTH_SPEC)
    assert cli_main(["synth", str(spec), "--out", str(root / "raw")]) == 0
    assert cli_main([
        "ingest", str(root / "raw" / "log.tsv"),
        "--schema", str(root / "raw" / "schema.txt"),
        "--out", str(root / "data"),
    ]) == 0
    return root


QUICK_SETS = ["--config", os.path.join(EXAMPLES, "quick.cfg")]


DOMAIN_CASES = ("wrong type", "out of domain", "empty")
# values that once passed the config and failed later, or ran: the old
# WganConfig cases, and probes that raised a traceback (exit 1), exited
# 4, or ran on a truncated or meaningless value
LATE_FAILURES = ["wgan_gen_hidden=0", "wgan_critic_hidden=-3", "wgan_lr=nan",
                 "wgan_tau=nan", "wgan_lambda=inf", "fit_epochs=-3", "fit_l2_grid=nan",
                 "t0=2.7", "wgan_batch=2.7", "fit_l2_grid=1e-4,", "alphas=0.5,,2"]


def bad_value(domain, case):
    """A value outside a config table domain: of the wrong type, out of its
    range, or empty. A domain this does not know fails the test."""
    if case == "empty":
        return ""
    if isinstance(domain, Choice):
        return {"wrong type": "1", "out of domain": "galactic"}[case]
    assert isinstance(domain, Number), f"no bad values known for {domain!r}"
    if case == "wrong type":
        one = "2.5" if domain.kind is int else "x"
    else:
        one = f"{domain.lo if domain.strict else domain.lo - 1:g}"
    return f"1,{one}" if domain.many else one


@pytest.fixture(scope="module")
def pipeline(workdir):
    """Write into workdir the market, price and click models of both
    splits and the linbid, rlb and fdqi agents of the train split."""
    d = str(workdir / "data")
    q = QUICK_SETS
    for split in ("train", "test"):
        assert cli_main(["train-market", d, "--split", split,
                         "--out", str(workdir / f"market_{split}.ckpt")] + q) == 0
        assert cli_main(["train-price", d, "--split", split,
                         "--out", str(workdir / f"price_{split}.ckpt")] + q) == 0
        assert cli_main(["train-click", d, "--split", split,
                         "--out", str(workdir / f"click_{split}.ckpt")] + q) == 0

    train_models = ["--data", d, "--market", str(workdir / "market_train.ckpt"),
                    "--price", str(workdir / "price_train.ckpt")]
    assert cli_main(["tune-linbid", *train_models,
                     "--out", str(workdir / "linbid.ckpt")] + q) == 0
    assert cli_main(["solve-rlb", "--data", d,
                     "--out", str(workdir / "rlb.ckpt")] + q) == 0
    assert cli_main(["train-agent", *train_models, "--agent", "fdqi",
                     "--out", str(workdir / "fdqi.ckpt")] + q) == 0


class TestCliPipeline:
    def quick_sets(self):
        return list(QUICK_SETS)

    def test_tagged_ingest_is_independent_of_the_hash_seed(self, workdir, tmp_path):
        # user tags arrive as a set per record; the dictionary must not
        # number them in Python's per-process string-hash order
        schema = workdir / "raw" / "schema.txt"
        col = [name for name, _ in load_schema(schema)].index("user_tags")
        rows = []
        for i, line in enumerate((workdir / "raw" / "log.tsv").read_text().splitlines()):
            cells = line.split("\t")
            cells[col] = ",".join(f"t{(3 * i + 5 * j) % 13}" for j in range(i % 5))
            rows.append("\t".join(cells))
        log = tmp_path / "tagged.tsv"
        log.write_text("\n".join(rows) + "\n")
        src = os.path.dirname(os.path.dirname(rtblab.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"data-{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "rtblab.cli", "ingest", str(log),
                            "--schema", str(schema), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "dict.txt" in outputs[0] and "train.samples" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.usefixtures("pipeline")
    def test_full_pipeline(self, workdir):
        d = str(workdir / "data")
        q = self.quick_sets()
        report = workdir / "report.tsv"
        assert cli_main([
            "evaluate", "--data", d,
            "--market", str(workdir / "market_test.ckpt"),
            "--price", str(workdir / "price_test.ckpt"),
            "--agents", str(workdir / "linbid.ckpt"), str(workdir / "rlb.ckpt"),
            str(workdir / "fdqi.ckpt"),
            "--out", str(report),
        ] + q) == 0
        rows = read_report_tsv(report)
        assert len(rows) == 9  # 3 agents x 3 alphas
        assert all(0.0 <= r.reward_pct <= 100.0 for r in rows)

        assert cli_main(["mmd", "--data", d,
                         "--model", str(workdir / "market_test.ckpt"),
                         "--set", "mmd_n=60", "--set", "mmd_repeats=5"]) == 0

    @pytest.mark.usefixtures("pipeline")
    def test_train_env_checkpoints_rejected_for_test_eval(self, workdir):
        d = str(workdir / "data")
        code = cli_main([
            "evaluate", "--data", d,
            "--market", str(workdir / "market_train.ckpt"),
            "--price", str(workdir / "price_test.ckpt"),
            "--agents", str(workdir / "linbid.ckpt"),
            "--out", str(workdir / "bad.tsv"),
        ] + self.quick_sets())
        assert code == 2

    @pytest.mark.usefixtures("pipeline")
    def test_click_utility_without_click_model_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "linbid.ckpt"
        assert cli_main([
            "tune-linbid", "--data", str(workdir / "data"),
            "--market", str(workdir / "market_train.ckpt"),
            "--price", str(workdir / "price_train.ckpt"),
            "--out", str(out), "--set", "utility=click",
        ] + self.quick_sets()) == 2
        assert "click model" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_rlb_prices_above_budget_grid(self, workdir, tmp_path):
        # horizon 1 at alpha 0.25 gives a budget grid of 20, below most train prices
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(workdir / "data"), "--out", str(out),
                         "--set", "rlb_horizon=1", "--set", "alphas=0.25"]) == 0
        agent, _ = ckpt.load_agent(out)
        assert agent.tables.max_budget == 20
        assert np.all(agent.tables.value[1] <= 1.0)

    @pytest.mark.parametrize("override", ["rlb_horizon=0", "alphas=-1"])
    def test_solve_rlb_rejects_empty_horizon_and_negative_budget(self, workdir, tmp_path,
                                                                 override):
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(workdir / "data"), "--out", str(out),
                         "--set", override]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["100000", "1000000000000"])
    def test_solve_rlb_horizon_too_big_to_allocate_exits_2(self, workdir, tmp_path,
                                                           capsys, horizon):
        # numpy refuses both table sizes (22 TiB, and a size it cannot
        # represent) before it allocates anything
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(workdir / "data"), "--out", str(out),
                         "--set", f"rlb_horizon={horizon}"]) == 2
        assert "rlb_horizon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        (key, case) for key in KEYS for case in DOMAIN_CASES] + [
        tuple(override.split("=")) for override in LATE_FAILURES])
    def test_value_outside_its_domain_exits_2_and_names_the_key(
            self, workdir, tmp_path, capsys, key, value):
        # every key is checked before any work, whichever command runs
        if value in DOMAIN_CASES:
            value = bad_value(KEYS[key][1], value)
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(workdir / "data"), "--out", str(out)]
                        + self.quick_sets() + ["--set", f"{key}={value}"]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.usefixtures("pipeline")
    @pytest.mark.parametrize("echo", [{"wgan_tau": "abc"}, None])
    def test_mmd_on_a_market_without_a_valid_tau_exits_3(self, workdir, tmp_path, capsys,
                                                         echo):
        manifest, arrays = ckpt.load_checkpoint(workdir / "market_test.ckpt")
        if echo is None:
            del manifest["config"]
        else:
            manifest["config"].update(echo)
        model, out = tmp_path / "market.ckpt", tmp_path / "mmd.tsv"
        ckpt.save_checkpoint(model, manifest, arrays)
        assert cli_main(["mmd", "--data", str(workdir / "data"), "--model", str(model),
                         "--out", str(out), "--set", "mmd_n=60",
                         "--set", "mmd_repeats=5"]) == 3
        assert str(model) in capsys.readouterr().err
        assert not out.exists()

    def test_typo_in_set_key_exits_2_and_names_it(self, workdir, tmp_path, capsys):
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(workdir / "data"), "--out", str(out),
                         "--set", "rlb_horizn=5"]) == 2
        assert "rlb_horizn" in capsys.readouterr().err
        assert not out.exists()

    def test_typo_in_config_file_key_exits_2_and_names_it(self, workdir, tmp_path,
                                                          capsys):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("rlb_horizon = 5\nddqn_totl_steps = 5\n")
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(workdir / "data"), "--out", str(out),
                         "--config", str(cfg_file)]) == 2
        assert "ddqn_totl_steps" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["stats", str(tmp_path / "nope")]) == 3

    def test_stats_command(self, workdir):
        assert cli_main(["stats", str(workdir / "data")]) == 0

    def test_stats_on_corrupt_histogram_exits_3(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        with open(data / "hist_train.tsv", "a", encoding="utf-8") as fh:
            fh.write("7 0.1\n")
        assert cli_main(["stats", str(data)]) == 3
        assert "hist_train.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [lambda width: -1, lambda width: width + 5],
                             ids=["-1", "width+5"])
    def test_train_price_on_a_request_index_outside_the_width_exits_3(
            self, workdir, tmp_path, capsys, index):
        # -1 once died in bincount and width + 5 with an IndexError
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        path = data / "train.samples"
        header, first, rest = path.read_text().split("\n", 2)
        cells = first.split("\t")
        width = int(header.split()[2])
        cells[5] = ",".join([str(index(width)), *cells[5].split(",")[1:]])
        path.write_text("\n".join([header, "\t".join(cells), rest]))
        out = tmp_path / "price.ckpt"
        assert cli_main(["train-price", str(data), "--split", "train", "--out", str(out)]
                        + QUICK_SETS) == 3
        assert "train.samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,line", [
        ("stats_train.txt", "cpm = nan"), ("stats_train.txt", "cpm = -1.0"),
        ("stats_train.txt", "cpm = inf"), ("stats_train.txt", "impression_rate = 1.5"),
        ("stats_train.txt", "impression_rate = nan"), ("stats_train.txt", "n = -4"),
        ("stats_train.txt", "d = -1"), ("hist_train.tsv", "0\tnan"),
        ("hist_train.tsv", "0\t-0.25"), ("hist_train.tsv", "0\tinf")])
    def test_solve_rlb_on_an_out_of_domain_stats_or_histogram_value_exits_3(
            self, workdir, tmp_path, capsys, name, line):
        # cpm = nan once died converting NaN to an integer, and a nan
        # histogram row solved and wrote a checkpoint
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        sep = "\t" if name.endswith(".tsv") else " = "
        key = line.split(sep)[0] + sep
        lines = (data / name).read_text().splitlines()
        at = next(i for i, old in enumerate(lines) if old.startswith(key))
        lines[at] = line
        (data / name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "rlb.ckpt"
        assert cli_main(["solve-rlb", "--data", str(data), "--out", str(out)]
                        + QUICK_SETS) == 3
        assert name in capsys.readouterr().err
        assert not out.exists()


# sizes at which a command's work on valid data takes a few milliseconds
TINY_SETS = ["--set", "fit_epochs=2", "--set", "fit_l2_grid=1e-2", "--set", "fit_lr_grid=0.3",
             "--set", "wgan_iters=2", "--set", "wgan_batch=16", "--set", "wgan_z_dim=4",
             "--set", "wgan_gen_hidden=4", "--set", "wgan_critic_hidden=4",
             "--set", "wgan_critic_steps=1", "--set", "rlb_horizon=5"]


# each cell rule broken in one row, by column; the sample file's columns
# carry the log's names
CELL_RULE_CASES = {
    "nan bid": {"bid_price": "nan"},
    "inf bid": {"bid_price": "inf"},
    "negative price": {"pay_price": "-5.0"},
    "win 2": {"win": "2"},
    "won above the bid": {"win": "1", "bid_price": "10.0", "pay_price": "50.0"},
    "timestamp beyond int64": {"timestamp": str(10**23)},
    "won without a price": {"win": "1", "pay_price": ""},
}
SAMPLE_COLUMNS = ("timestamp", "win", "click", "bid_price", "pay_price", "indices")


def edit_first_row(path, columns, edits, skip=0):
    """Set the cells of the first row after skip lines of a TSV file."""
    lines = path.read_text().split("\n")
    cells = lines[skip].split("\t")
    for name, cell in edits.items():
        cells[columns.index(name)] = cell
    lines[skip] = "\t".join(cells)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("case", sorted(CELL_RULE_CASES))
def test_sample_file_breaking_a_cell_rule_exits_3(workdir, tmp_path, capsys, case):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    edit_first_row(data / "train.samples", SAMPLE_COLUMNS, CELL_RULE_CASES[case], skip=1)
    out = tmp_path / "price.ckpt"
    assert cli_main(["train-price", str(data), "--split", "train", "--out", str(out)]
                    + TINY_SETS) == 3
    assert "train.samples:2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(CELL_RULE_CASES))
def test_log_line_breaking_a_cell_rule_is_skipped_and_counted(workdir, tmp_path, capsys,
                                                              case):
    log = tmp_path / "log.tsv"
    shutil.copy(workdir / "raw" / "log.tsv", log)
    names = [name for name, _ in DEFAULT_SCHEMA]
    edit_first_row(log, names, CELL_RULE_CASES[case])
    assert cli_main(["ingest", str(log), "--schema", str(workdir / "raw" / "schema.txt"),
                     "--out", str(tmp_path / "data")]) == 0
    assert "skipped 1 malformed lines" in capsys.readouterr().out
    kept = sum(len(SampleSet.load(tmp_path / "data" / f"{split}.samples"))
               for split in ("train", "val", "test"))
    assert kept == len(log.read_text().splitlines()) - 1


def test_train_market_on_samples_wider_than_the_dictionary_exits_3(workdir, tmp_path,
                                                                      capsys):
    # this once exited 2: "real and fake batches must share the feature width"
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    header, rest = (data / "train.samples").read_text().split("\n", 1)
    width = int(header.split()[2])
    (data / "train.samples").write_text(f"samples 1 {width + 1}\n{rest}")
    out = tmp_path / "market.ckpt"
    assert cli_main(["train-market", str(data), "--split", "train", "--out", str(out)]
                    + TINY_SETS) == 3
    assert f"request width {width + 1}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,split,claimed", [
    # a header of 10**14 once made train-price exit 1 with numpy's
    # _ArrayMemoryError (1.42 PiB) from the price fit
    ("train-price", "train", lambda width: 100000000000000),
    ("train-price", "train", lambda width: width - 1),
    ("train-market", "train", lambda width: width - 1),
    ("mmd", "test", lambda width: width + 1),
    ("mmd", "test", lambda width: 100000000000000),
], ids=["train-price 1e14", "train-price narrower", "train-market narrower",
        "mmd wider", "mmd 1e14"])
def test_sample_width_other_than_the_dictionary_exits_3(workdir, tmp_path, capsys,
                                                        command, split, claimed):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    path = data / f"{split}.samples"
    header, rest = path.read_text().split("\n", 1)
    width = int(header.split()[2])
    path.write_text(f"samples 1 {claimed(width)}\n{rest}")
    out = tmp_path / "out"
    if command == "mmd":
        argv = ["mmd", "--data", str(data), "--model", str(tmp_path / "market.ckpt"),
                "--out", str(out)]
    else:
        argv = [command, str(data), "--split", split, "--out", str(out)]
    assert cli_main(argv + TINY_SETS) == 3
    err = capsys.readouterr().err
    assert f"{split}.samples: request width {claimed(width)} differs" in err
    assert f"width {width}" in err
    assert not out.exists()


def scipy_modules_after(code) -> list:
    """The scipy modules loaded once a fresh interpreter has run code. A
    new process, because the test process itself imports scipy.stats
    for its oracles."""
    src = os.path.dirname(os.path.dirname(rtblab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (code + "\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    res = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1].split()


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import rtblab.cli") == []


def test_train_price_loads_no_scipy_stats(workdir, tmp_path):
    # the price fit needs scipy.special and scipy.optimize only
    argv = ["train-price", str(workdir / "data"), "--split", "train",
            "--out", str(tmp_path / "price.ckpt")] + TINY_SETS
    loaded = scipy_modules_after(f"import rtblab.cli\nassert rtblab.cli.main({argv!r}) == 0")
    assert "scipy.optimize" in loaded and "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.stats")]


# the commands that read each file of an ingested data directory
PROBED = {
    "train.samples": ("train-price", "train-market"),
    "dict.txt": ("train-market", "train-price"),
    "stats_train.txt": ("stats", "solve-rlb"),
    "hist_train.tsv": ("stats", "solve-rlb"),
}


def probe_argv(command, data, out):
    """command run at tiny sizes on data, writing out."""
    if command == "stats":
        return ["stats", data]
    if command == "solve-rlb":
        return ["solve-rlb", "--data", data, "--out", out] + TINY_SETS
    return [command, data, "--split", "train", "--out", out] + TINY_SETS


@pytest.mark.filterwarnings("ignore:price fit")
@pytest.mark.parametrize("name", sorted(PROBED))
def test_one_byte_edit_of_a_data_file_exits_0_or_3(workdir, tmp_path, name):
    # replace, delete or insert one byte, most often near the start where
    # the header is: every command that reads the file runs or refuses it
    # as a data error, and none raises
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    raw = (data / name).read_bytes()
    out = str(tmp_path / "out.ckpt")

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(["replace", "delete", "insert"]),
           st.one_of(st.integers(0, min(60, len(raw) - 1)), st.integers(0, len(raw) - 1)),
           st.integers(0, 255))
    def run_edited(edit, pos, byte):
        cell = b"" if edit == "delete" else bytes([byte])
        (data / name).write_bytes(raw[:pos] + cell + raw[pos + (edit != "insert"):])
        for command in PROBED[name]:
            assert cli_main(probe_argv(command, str(data), out)) in (0, 3), command

    run_edited()


def quickstart_commands() -> list:
    """The argv of every rtb command in README's quickstart block."""
    with open(os.path.join(os.path.dirname(EXAMPLES), "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("## Quickstart", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("rtb ")]


@pytest.mark.filterwarnings("ignore:price fit")
def test_readme_quickstart_runs(tmp_path, monkeypatch):
    shutil.copytree(EXAMPLES, tmp_path / "examples")
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert commands[0] == ["synth", "examples/desk.spec", "--out", "raw"]
    assert len(commands) == 14
    for argv in commands:
        # the commands with config keys take the quick sizes
        takes_config = hasattr(build_parser().parse_args(argv), "config")
        quick = ["--config", "examples/quick.cfg"] if takes_config else []
        assert cli_main(argv + quick) == 0, argv


class TestSynthSpecErrors:
    def synth(self, tmp_path, text):
        spec = tmp_path / "spec.txt"
        spec.write_text(text)
        return cli_main(["synth", str(spec), "--out", str(tmp_path / "raw")])

    def test_missing_spec_exits_2(self, tmp_path):
        assert cli_main(["synth", str(tmp_path / "missing.spec"),
                         "--out", str(tmp_path / "raw")]) == 2

    def test_malformed_number_exits_2(self, tmp_path):
        assert self.synth(tmp_path, SYNTH_SPEC.replace("fields = 3,4",
                                                       "fields = 2,x")) == 2

    def test_line_without_equals_exits_2(self, tmp_path):
        assert self.synth(tmp_path, SYNTH_SPEC + "days 7\n") == 2

    def test_coefficient_list_of_wrong_length_exits_2(self, tmp_path, capsys):
        # five values for a three-category field used to spill into field f1
        text = SYNTH_SPEC.replace("price_mu_f0 = 15,0,-10", "price_mu_f0 = 15,0,-10,40,40")
        assert self.synth(tmp_path, text) == 2
        assert "price_mu_f0" in capsys.readouterr().err

    def test_probability_vector_of_wrong_length_exits_2(self, tmp_path, capsys):
        # a fifth probability used to sample field f1's first slot
        text = SYNTH_SPEC.replace("comp0_f0 = 0.8,0.15,0.05",
                                  "comp0_f0 = 0.6,0.15,0.05,0.1,0.1")
        assert self.synth(tmp_path, text) == 2
        assert "comp0_f0" in capsys.readouterr().err

    @pytest.mark.parametrize("probs", ["0,0,0", "0.5,-0.2,0.7", "0.5,nan,0.5"])
    def test_degenerate_probability_vector_exits_2(self, tmp_path, capsys, probs):
        text = SYNTH_SPEC.replace("comp0_f0 = 0.8,0.15,0.05", f"comp0_f0 = {probs}")
        assert self.synth(tmp_path, text) == 2
        assert "comp0_f0" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["1.5,-0.5", "nan,1", "inf,-inf"])
    def test_degenerate_mixture_weights_exit_2(self, tmp_path, capsys, weights):
        text = SYNTH_SPEC.replace("mixture_weights = 0.5,0.5",
                                  f"mixture_weights = {weights}")
        assert self.synth(tmp_path, text) == 2
        assert "mixture_weights" in capsys.readouterr().err


class ConstantBidAgent:
    """Always bids the same amount."""

    def __init__(self, bid: float):
        self._bid = float(bid)

    def bid(self, obs) -> float:
        return self._bid


class TestEvaluatePolicy:
    def factory(self, seed=140):
        from rtblab.env import EnvMeta, SimEnv
        from rtblab.market_action import PriceModel

        reqs = onehots([0], 1)
        price = PriceModel(np.array([5.0]), 0.0, np.array([0.0]), -20.0)
        meta = EnvMeta(cpm_ref=5000.0, t0_ref=20)

        def make(label):
            return SimEnv(EmpiricalSampler(reqs, stream(seed, label, "x")),
                          price, None, "impression", meta, stream(seed, label, "m"))

        return make

    def test_zero_bidder_scores_zero(self):
        res = evaluate_policy(self.factory(), ConstantBidAgent(0.0), 100.0, 20, 5)
        assert res.mean == 0.0 and res.std == 0.0

    def test_rich_max_bidder_wins_everything(self):
        res = evaluate_policy(self.factory(), ConstantBidAgent(50.0), 1e9, 20, 4)
        assert res.mean == 20.0

    def test_fixed_seed_identical_totals(self):
        a = evaluate_policy(self.factory(), ConstantBidAgent(6.0), 30.0, 20, 6)
        b = evaluate_policy(self.factory(), ConstantBidAgent(6.0), 30.0, 20, 6)
        assert a.totals == b.totals

    def test_non_finite_bid_aborts_episode(self):
        class BadAgent:
            def bid(self, obs):
                return float("nan")

        res = evaluate_policy(self.factory(), BadAgent(), 10.0, 20, 3)
        assert res.aborted == 3 and res.totals == []

    def test_agent_errors_propagate(self):
        class ShapeBugAgent:
            def bid(self, obs):
                raise DimensionError("bad input width")

        with pytest.raises(DimensionError):
            evaluate_policy(self.factory(), ShapeBugAgent(), 10.0, 20, 3)

    def test_budget_sweep_reward_pct_monotone(self):
        table = budget_sweep({"const": ConstantBidAgent(6.0)}, self.factory(),
                             cpm_te=5000.0, t0=20, alphas=(0.25, 0.5, 1, 2, 4),
                             repeats=4)
        pcts = [r.reward_pct for r in table.rows]
        assert all(b >= a - 1e-9 for a, b in zip(pcts, pcts[1:]))
        assert table.rows[2].alpha == 1.0
