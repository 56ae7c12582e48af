"""Checkpoint container: a one-line JSON manifest followed by named
little-endian array blobs, with an integrity hash over the payload.
Integer arrays are stored as int32 ("<i4") and all others as float64
("<f8"); each directory entry names its dtype, and an entry without one
(written before dtypes were recorded) is float64. Round trips are
bit-exact.
"""

import hashlib
import json

import numpy as np

from .autodiff import DenseLayer, Mlp
from .errors import DataError
from .market_action import ClickModel, PriceModel
from .market_state import Generator

MAGIC = "rtbckpt 1"
DTYPES = ("<f8", "<i4")


def save_checkpoint(path, manifest: dict, arrays: dict) -> None:
    """Write manifest + arrays; array order follows the directory listing."""
    directory = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if np.issubdtype(arr.dtype, np.integer):
            info = np.iinfo(np.int32)
            if arr.size and (arr.min() < info.min or arr.max() > info.max):
                raise ValueError(f"array {name!r} does not fit in int32")
            dtype = "<i4"
        else:
            dtype = "<f8"
        directory.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        payload.extend(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    head = dict(manifest)
    head["arrays"] = directory
    head["sha256"] = hashlib.sha256(bytes(payload)).hexdigest()
    with open(path, "wb") as fh:
        fh.write((MAGIC + "\n").encode())
        fh.write((json.dumps(head, sort_keys=True) + "\n").encode())
        fh.write(bytes(payload))


def load_checkpoint(path):
    """Returns (manifest, arrays); refuses unknown versions and bad hashes."""
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().decode().strip()
            if magic != MAGIC:
                raise DataError(f"{path}: unknown checkpoint version {magic!r}")
            head = json.loads(fh.readline().decode())
            payload = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:   # a header that is not UTF-8 JSON
        raise DataError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not isinstance(head, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    if hashlib.sha256(payload).hexdigest() != head.get("sha256"):
        raise DataError(f"{path}: integrity hash mismatch (truncated or corrupt)")
    arrays = {}
    offset = 0
    for entry in head["arrays"]:
        dtype = entry.get("dtype", "<f8")
        if dtype not in DTYPES:
            raise DataError(f"{path}: unknown array dtype {dtype!r}")
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * np.dtype(dtype).itemsize
        arrays[entry["name"]] = np.frombuffer(
            payload[offset : offset + nbytes], dtype=dtype
        ).reshape(entry["shape"]).copy()
        offset += nbytes
    manifest = {k: v for k, v in head.items() if k not in ("arrays", "sha256")}
    return manifest, arrays


def hash_requests(requests) -> str:
    """Stable content hash of a featurized request corpus (a
    PackedRequests): every row's indices as little-endian int64, each row
    followed by b";", hashed in one pass."""
    data = requests.indices.astype("<i8").view(np.uint8)
    stream = np.insert(data, 8 * np.cumsum(requests.counts), ord(";"))
    return hashlib.sha256(stream.tobytes()).hexdigest()[:16]


def hash_histogram(histogram) -> str:
    """Stable content hash of a price histogram's probabilities."""
    data = np.asarray(histogram.probs, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _mlp_arrays(prefix: str, net: Mlp) -> dict:
    out = {}
    for i, lay in enumerate(net.layers):
        out[f"{prefix}.{i}.w"] = lay.w
        out[f"{prefix}.{i}.b"] = lay.b
    return out


def _mlp_from_arrays(prefix: str, arrays: dict, acts: list) -> Mlp:
    layers = []
    for i, act in enumerate(acts):
        layers.append(DenseLayer(arrays[f"{prefix}.{i}.w"],
                                 arrays[f"{prefix}.{i}.b"], act))
    return Mlp(layers)


def _acts(net: Mlp) -> list:
    return [lay.act for lay in net.layers]


def save_market_state(path, gen: Generator, critic: Mlp, split: str,
                      data_hash: str, config: dict, iterations: int) -> None:
    manifest = {
        "type": "market_state",
        "split": split,
        "data_hash": data_hash,
        "config": {k: str(v) for k, v in config.items()},
        "iterations": iterations,
        "z_dim": gen.z_dim,
        "slices": [list(s) for s in gen.slices],
        "gen_acts": _acts(gen.net),
        "critic_acts": _acts(critic),
    }
    arrays = _mlp_arrays("gen", gen.net)
    arrays.update(_mlp_arrays("critic", critic))
    save_checkpoint(path, manifest, arrays)


def load_market_state(path):
    manifest, arrays = load_checkpoint(path)
    if manifest.get("type") != "market_state":
        raise DataError(f"{path} is not a market-state checkpoint")
    gen = Generator(
        _mlp_from_arrays("gen", arrays, manifest["gen_acts"]),
        tuple(tuple(s) for s in manifest["slices"]),
        int(manifest["z_dim"]),
    )
    critic = _mlp_from_arrays("critic", arrays, manifest["critic_acts"])
    return gen, critic, manifest


def save_price_model(path, model: PriceModel, split: str, data_hash: str,
                     config: dict) -> None:
    manifest = {"type": "price", "split": split, "data_hash": data_hash,
                "config": {k: str(v) for k, v in config.items()}}
    arrays = {
        "price.mu": np.concatenate([model.mu_w, [model.mu_b]]),
        "price.logsigma": np.concatenate([model.logsig_w, [model.logsig_b]]),
    }
    save_checkpoint(path, manifest, arrays)


def load_price_model(path):
    manifest, arrays = load_checkpoint(path)
    if manifest.get("type") != "price":
        raise DataError(f"{path} is not a price-model checkpoint")
    mu = arrays["price.mu"]
    ls = arrays["price.logsigma"]
    return PriceModel(mu[:-1], float(mu[-1]), ls[:-1], float(ls[-1])), manifest


def save_click_model(path, model: ClickModel, split: str, data_hash: str,
                     config: dict) -> None:
    manifest = {"type": "click", "split": split, "data_hash": data_hash,
                "config": {k: str(v) for k, v in config.items()}}
    save_checkpoint(path, manifest,
                    {"click.w": model.w, "click.b": np.array([model.b])})


def load_click_model(path):
    manifest, arrays = load_checkpoint(path)
    if manifest.get("type") != "click":
        raise DataError(f"{path} is not a click-model checkpoint")
    return ClickModel(arrays["click.w"], float(arrays["click.b"][0])), manifest


def save_qnet_agent(path, agent_type: str, qnet, grid_values, split: str,
                    config: dict, extra: dict = None) -> None:
    from .agents.qnet import QNetwork

    assert agent_type in ("exddqn", "fdqi")
    manifest = {
        "type": "agent",
        "agent_type": agent_type,
        "split": split,
        "config": {k: str(v) for k, v in config.items()},
        "trunk_acts": _acts(qnet.trunk),
        "value_acts": _acts(qnet.value),
        "advantage_acts": _acts(qnet.advantage),
    }
    manifest.update(extra or {})
    arrays = {"q.f1.w": qnet.f1_w, "q.f1.b": qnet.f1_b, "grid": grid_values}
    arrays.update(_mlp_arrays("q.trunk", qnet.trunk))
    arrays.update(_mlp_arrays("q.value", qnet.value))
    arrays.update(_mlp_arrays("q.advantage", qnet.advantage))
    save_checkpoint(path, manifest, arrays)


def load_agent(path):
    """Load any agent checkpoint into a ready-to-bid agent object."""
    from .agents import ActionGrid, DpTables, GreedyQAgent, LinBidAgent, RlbAgent
    from .agents.qnet import QNetwork

    manifest, arrays = load_checkpoint(path)
    if manifest.get("type") != "agent":
        raise DataError(f"{path} is not an agent checkpoint")
    kind = manifest.get("agent_type")
    if kind in ("exddqn", "fdqi"):
        qnet = QNetwork(
            arrays["q.f1.w"], arrays["q.f1.b"],
            _mlp_from_arrays("q.trunk", arrays, manifest["trunk_acts"]),
            _mlp_from_arrays("q.value", arrays, manifest["value_acts"]),
            _mlp_from_arrays("q.advantage", arrays, manifest["advantage_acts"]),
        )
        return GreedyQAgent(qnet, ActionGrid(arrays["grid"])), manifest
    if kind == "linbid":
        utility = manifest.get("utility", "impression")
        if utility == "click":
            click = ClickModel(arrays["click.w"], float(arrays["click.b"][0]))
            return LinBidAgent(float(arrays["b0"][0]), "click", click,
                               float(manifest["avg_ctr"])), manifest
        return LinBidAgent(float(arrays["b0"][0])), manifest
    if kind == "rlb":
        tables = DpTables(
            arrays["value"],
            arrays["policy"].astype(np.int32),
            int(manifest["horizon"]),
            int(manifest["max_budget"]),
        )
        return RlbAgent(tables, ActionGrid(arrays["grid"])), manifest
    raise DataError(f"unknown agent_type {kind!r} in {path}")


def save_linbid_agent(path, b0: float, split: str, config: dict,
                      utility: str = "impression", click_model=None,
                      avg_ctr: float = None) -> None:
    manifest = {"type": "agent", "agent_type": "linbid", "split": split,
                "utility": utility,
                "config": {k: str(v) for k, v in config.items()}}
    arrays = {"b0": np.array([b0])}
    if utility == "click":
        manifest["avg_ctr"] = float(avg_ctr)
        arrays["click.w"] = click_model.w
        arrays["click.b"] = np.array([click_model.b])
    save_checkpoint(path, manifest, arrays)


def save_rlb_agent(path, tables, grid_values, m_hash: str, split: str,
                   config: dict) -> None:
    manifest = {
        "type": "agent",
        "agent_type": "rlb",
        "split": split,
        "config": {k: str(v) for k, v in config.items()},
        "horizon": tables.horizon,
        "max_budget": tables.max_budget,
        "histogram_hash": m_hash,
    }
    arrays = {
        "value": tables.value,
        "policy": tables.policy,
        "grid": grid_values,
    }
    save_checkpoint(path, manifest, arrays)
