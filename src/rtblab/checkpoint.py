"""Checkpoint container and one codec per model and agent kind.

The container is a one-line JSON manifest followed by named
little-endian array blobs, with an integrity hash over the payload.
Integer arrays are stored as int32 ("<i4"), float32 arrays (the
market-state generator and critic, and the exddqn and fdqi Q-networks)
as float32 ("<f4") and all others as float64 ("<f8"); each directory
entry names its dtype, and an entry without one (written before dtypes
were recorded) is float64. Round trips are bit-exact and keep the
dtype, so a Q-network saved in float64 loads and acts in float64.

The codec streams each array. save_checkpoint hashes and writes every
array from its own buffer, so it holds no copy beyond a dtype or
layout conversion (an int64 array stored as int32, or a transposed
view made C-contiguous). load_checkpoint checks the whole directory
against the file's size before it allocates, then reads each array
straight into its own buffer, so it holds the arrays once. A header
whose directory the payload cannot hold is a DataError, as is a bad
hash; no array is returned before both checks.

Every typed manifest is built by _manifest (type, split, the config as
strings, then the kind's own fields), and every typed file is opened by
_load_kind, which refuses a file of another type and runs the kind's
decoder: a missing or malformed manifest field or array is a DataError
naming the file. The kinds and the helpers that own them:

- "market_state": save_market_state / load_market_state
  (_market_state_from); the generator and critic layers go through
  _mlp_arrays / _mlp_from_arrays.
- "price": save_price_model / load_price_model (_price_model_from).
- "click": save_click_model / load_click_model; the arrays are written
  by _click_arrays and read by _click_from_arrays.
- "agent": save_agent / load_agent (_agent_from), one branch per agent_type:
  "exddqn" and "fdqi" (GreedyQAgent, its Q-network through
  _mlp_arrays), "linbid" (LinBidAgent; under click utility its click
  model goes through _click_arrays) and "rlb" (RlbAgent).
"""

import hashlib
import json
import math
import os

import numpy as np

from .agents import ActionGrid, DpTables, GreedyQAgent, LinBidAgent, QNetwork, RlbAgent
from .autodiff import DenseLayer, Mlp
from .errors import DataError
from .market_action import ClickModel, PriceModel
from .market_state import Generator

MAGIC = "rtbckpt 1"
DTYPES = ("<f8", "<f4", "<i4")
KIND_NAMES = {"market_state": "a market-state", "price": "a price-model",
              "click": "a click-model", "agent": "an agent"}
Q_AGENTS = ("exddqn", "fdqi")
QNET_PARTS = ("trunk", "value", "advantage")   # QNetwork's Mlp fields, in order


def save_checkpoint(path, manifest: dict, arrays: dict) -> None:
    """Write manifest + arrays; array order follows the directory listing.
    Each array is hashed and written from its own buffer, so nothing is
    copied but an array that is not already C-contiguous in its stored
    dtype."""
    directory, blobs = [], []
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        if np.issubdtype(arr.dtype, np.integer):
            info = np.iinfo(np.int32)
            if arr.size and (arr.min() < info.min or arr.max() > info.max):
                raise ValueError(f"array {name!r} does not fit in int32")
            dtype = "<i4"
        elif arr.dtype == np.float32:
            dtype = "<f4"
        else:
            dtype = "<f8"
        directory.append({"name": name, "shape": list(arr.shape), "dtype": dtype})
        blob = np.ascontiguousarray(arr, dtype=dtype)   # a view when arr already is one
        digest.update(blob)
        blobs.append(blob)
    head = dict(manifest)
    head["arrays"] = directory
    head["sha256"] = digest.hexdigest()
    with open(path, "wb") as fh:
        fh.write((MAGIC + "\n").encode())
        fh.write((json.dumps(head, sort_keys=True) + "\n").encode())
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Returns (manifest, arrays); refuses unknown versions, a directory
    that does not fit the payload and bad hashes. The directory is
    checked against the file's size before any array is allocated, and
    each array is read straight into its own buffer, so the arrays are
    held once."""
    try:
        with open(path, "rb") as fh:
            head = _read_head(path, fh)
            entries = _directory(path, head, os.fstat(fh.fileno()).st_size - fh.tell())
            arrays = {}
            digest = hashlib.sha256()
            for name, shape, dtype in entries:
                try:
                    arr = np.empty(shape, dtype)
                except (ValueError, OverflowError) as exc:   # a zero-size shape numpy cannot hold
                    raise DataError(f"{path}: array {name!r} has an impossible shape "
                                    f"{list(shape)} ({exc})") from exc
                buf = arr.reshape(-1).view(np.uint8)
                if fh.readinto(buf) != buf.size:
                    raise DataError(f"{path}: array {name!r} runs past the end "
                                    "of the payload")
                digest.update(buf)
                arrays[name] = arr
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if digest.hexdigest() != head.get("sha256"):
        raise DataError(f"{path}: integrity hash mismatch (truncated or corrupt)")
    manifest = {k: v for k, v in head.items() if k not in ("arrays", "sha256")}
    return manifest, arrays


def _read_head(path, fh) -> dict:
    """The magic line and the JSON header of an open checkpoint."""
    try:
        magic = fh.readline().decode().strip()
        if magic != MAGIC:
            raise DataError(f"{path}: unknown checkpoint version {magic!r}")
        head = json.loads(fh.readline().decode())
    except ValueError as exc:   # a header that is not UTF-8 JSON
        raise DataError(f"{path}: unreadable checkpoint header: {exc}") from exc
    if not isinstance(head, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    return head


def _directory(path, head: dict, payload_bytes: int) -> list:
    """[(name, shape, dtype)] of the header's array directory, each entry
    checked (a string name, a shape of non-negative ints, a known dtype)
    and their summed size checked against the payload's, so nothing is
    allocated for a directory the file cannot hold."""
    if not isinstance(head.get("arrays"), list):
        raise DataError(f"{path}: checkpoint header has no array directory")
    entries = []
    offset = 0
    for entry in head["arrays"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise DataError(f"{path}: malformed array directory entry {entry!r}")
        dtype = entry.get("dtype", "<f8")
        if dtype not in DTYPES:
            raise DataError(f"{path}: unknown array dtype {dtype!r}")
        offset += math.prod(entry["shape"]) * np.dtype(dtype).itemsize
        if offset > payload_bytes:
            raise DataError(f"{path}: array {entry['name']!r} runs past the end "
                            "of the payload")
        entries.append((entry["name"], tuple(entry["shape"]), dtype))
    if offset != payload_bytes:
        raise DataError(f"{path}: {payload_bytes - offset} payload bytes belong "
                        "to no array in the directory")
    return entries


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


def _manifest(kind: str, split: str, config: dict, **fields) -> dict:
    """The manifest of a typed checkpoint; the config is echoed as strings."""
    return {"type": kind, "split": split,
            "config": {k: str(v) for k, v in config.items()}, **fields}


def _load_kind(path, kind: str, decode):
    """decode(manifest, arrays) of a checkpoint of this kind. A file of
    another type, or a manifest field or array that is missing or
    malformed (the payload hash does not cover the manifest), is a
    DataError naming the file."""
    try:
        manifest, arrays = load_checkpoint(path)
        if manifest.get("type") != kind:
            raise DataError(f"{path} is not {KIND_NAMES[kind]} checkpoint")
        return decode(manifest, arrays)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {kind} checkpoint "
                        f"({type(exc).__name__}: {exc})") from exc


def save_market_state(path, gen: Generator, critic: Mlp, split: str,
                      data_hash: str, config: dict, iterations: int) -> None:
    manifest = _manifest(
        "market_state", split, config,
        data_hash=data_hash,
        iterations=iterations,
        z_dim=gen.z_dim,
        slices=[list(s) for s in gen.slices],
        gen_acts=_acts(gen.net),
        critic_acts=_acts(critic),
    )
    arrays = _mlp_arrays("gen", gen.net)
    arrays.update(_mlp_arrays("critic", critic))
    save_checkpoint(path, manifest, arrays)


def load_market_state(path):
    return _load_kind(path, "market_state", _market_state_from)


def _market_state_from(manifest: dict, arrays: dict):
    gen = Generator(
        _mlp_from_arrays("gen", arrays, manifest["gen_acts"]),
        tuple(tuple(s) for s in manifest["slices"]),
        int(manifest["z_dim"]),
    )
    critic = _mlp_from_arrays("critic", arrays, manifest["critic_acts"])
    return gen, critic, manifest


def save_price_model(path, model: PriceModel, split: str, data_hash: str,
                     config: dict) -> None:
    arrays = {
        "price.mu": np.concatenate([model.mu_w, [model.mu_b]]),
        "price.logsigma": np.concatenate([model.logsig_w, [model.logsig_b]]),
    }
    save_checkpoint(path, _manifest("price", split, config, data_hash=data_hash), arrays)


def load_price_model(path):
    return _load_kind(path, "price", _price_model_from)


def _price_model_from(manifest: dict, arrays: dict):
    mu = arrays["price.mu"]
    ls = arrays["price.logsigma"]
    return PriceModel(mu[:-1], float(mu[-1]), ls[:-1], float(ls[-1])), manifest


def _click_arrays(model: ClickModel) -> dict:
    return {"click.w": model.w, "click.b": np.array([model.b])}


def _click_from_arrays(arrays: dict) -> ClickModel:
    return ClickModel(arrays["click.w"], float(arrays["click.b"][0]))


def save_click_model(path, model: ClickModel, split: str, data_hash: str,
                     config: dict) -> None:
    save_checkpoint(path, _manifest("click", split, config, data_hash=data_hash),
                    _click_arrays(model))


def load_click_model(path):
    return _load_kind(path, "click", lambda manifest, arrays: (
        _click_from_arrays(arrays), manifest))


def save_agent(path, agent_type: str, agent, config: dict, **fields) -> None:
    """Write an agent as load_agent returns it: a GreedyQAgent for the
    Q_AGENTS, a LinBidAgent for "linbid", an RlbAgent for "rlb". Agents
    are trained on the train split; fields adds provenance to the manifest.
    """
    if agent_type in Q_AGENTS:
        arrays = {"q.f1.w": agent.qnet.f1_w, "q.f1.b": agent.qnet.f1_b,
                  "grid": agent.grid.values}
        for part in QNET_PARTS:
            net = getattr(agent.qnet, part)
            fields[f"{part}_acts"] = _acts(net)
            arrays.update(_mlp_arrays(f"q.{part}", net))
    elif agent_type == "linbid":
        fields["utility"] = agent.utility
        arrays = {"b0": np.array([agent.b0])}
        if agent.utility == "click":
            fields["avg_ctr"] = float(agent.avg_ctr)
            arrays.update(_click_arrays(agent.click_model))
    elif agent_type == "rlb":
        tables = agent.tables
        fields.update(horizon=tables.horizon, max_budget=tables.max_budget)
        arrays = {"value": tables.value, "policy": tables.policy,
                  "grid": agent.grid.values}
    else:
        raise ValueError(f"unknown agent_type {agent_type!r}")
    manifest = _manifest("agent", "train", config, agent_type=agent_type, **fields)
    save_checkpoint(path, manifest, arrays)


def load_agent(path):
    """Load any agent checkpoint into a ready-to-bid agent object."""
    return _load_kind(path, "agent", _agent_from)


def _agent_from(manifest: dict, arrays: dict):
    kind = manifest.get("agent_type")
    if kind in Q_AGENTS:
        qnet = QNetwork(arrays["q.f1.w"], arrays["q.f1.b"], *(
            _mlp_from_arrays(f"q.{part}", arrays, manifest[f"{part}_acts"])
            for part in QNET_PARTS))
        return GreedyQAgent(qnet, ActionGrid(arrays["grid"])), manifest
    if kind == "linbid":
        b0 = float(arrays["b0"][0])
        if manifest.get("utility", "impression") == "click":
            return LinBidAgent(b0, "click", _click_from_arrays(arrays),
                               float(manifest["avg_ctr"])), manifest
        return LinBidAgent(b0), manifest
    if kind == "rlb":
        tables = DpTables(arrays["value"], arrays["policy"],
                          int(manifest["horizon"]), int(manifest["max_budget"]))
        return RlbAgent(tables, ActionGrid(arrays["grid"])), manifest
    raise ValueError(f"unknown agent_type {kind!r}")
