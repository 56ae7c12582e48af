"""Output checks and input properties.

Every check is cheap and needs no golden value, because a change may
alter how the random streams are consumed. Each returns a list of
(check name, passed, detail); each entry counts as one operation.
"""

import glob
import hashlib
import os

import numpy as np


def digests(root: str) -> dict:
    """sha256 of every file under root, by path relative to root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def check_checkpoints(root: str) -> list:
    """Every checkpoint reloads with a valid hash and finite arrays."""
    from rtblab.checkpoint import load_checkpoint
    from rtblab.errors import DataError

    out = []
    for path in sorted(glob.glob(os.path.join(root, "*.ckpt"))):
        name = f"checkpoint {os.path.basename(path)}"
        try:
            _, arrays = load_checkpoint(path)
        except DataError as exc:
            out.append((name, False, str(exc)))
            continue
        bad = [k for k, a in arrays.items() if not np.all(np.isfinite(a))]
        out.append((name, not bad, f"non-finite arrays {bad}" if bad else "ok"))
    return out


def _read_kv(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return {k.strip(): v.strip() for k, _, v in
                (line.partition("=") for line in fh) if k.strip()}


def check_report(path, stats_path, agents, alphas, repeats, t0) -> list:
    """Rows = agents x alphas, every episode finished, reward_pct in
    [0, 100] and spend within the episode budget alpha * cpm * t0 / 1000."""
    cpm = float(_read_kv(stats_path)["cpm"])
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")][1:]
    out = [("report rows", len(rows) == len(agents) * len(alphas),
            f"{len(rows)} rows for {len(agents)} agents x {len(alphas)} alphas")]
    bad = []
    for agent, alpha, pct, _, spend, episodes in rows:
        budget = float(alpha) * cpm * t0 / 1000.0
        if int(episodes) != repeats:
            bad.append(f"{agent}@{alpha}: {episodes} of {repeats} episodes")
        if not 0.0 <= float(pct) <= 100.0:
            bad.append(f"{agent}@{alpha}: reward_pct {pct}")
        if float(spend) > budget + 0.005:  # the report rounds to cents
            bad.append(f"{agent}@{alpha}: spend {spend} > budget {budget:.2f}")
    out.append(("report values", not bad, "; ".join(bad) or "ok"))
    return out


def check_rlb(path) -> list:
    """The DP value table does not decrease in budget or in time left."""
    from rtblab.checkpoint import load_checkpoint

    value = load_checkpoint(path)[1]["value"]
    worst_b = float(np.min(np.diff(value, axis=1)))
    worst_t = float(np.min(np.diff(value, axis=0)))
    return [("rlb value monotone", worst_b >= 0.0 and worst_t >= 0.0,
             f"min step in budget {worst_b:.3g}, in time {worst_t:.3g}")]


def check_mmd(path) -> list:
    """The learned generator scores below the uniform sampler."""
    with open(path, "r", encoding="utf-8") as fh:
        score = {row[0]: float(row[1]) for row in
                 (line.split("\t") for line in fh.read().splitlines()[1:])}
    return [("mmd model below uniform", score["model"] < score["uniform"],
             f"model {score['model']} uniform {score['uniform']}")]


def input_properties(data_dir: str) -> dict:
    """The properties of an ingested data set the code's speed depends on."""
    with open(os.path.join(data_dir, "dict.txt"), "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    offset, i, tag_block = 0, 2, None
    while i < len(lines):
        _, field, n = lines[i].split()
        if field == "usertag":
            tag_block = (offset, offset + int(n) + 1)
        offset += int(n) + 1
        i += int(n) + 1
    ragged = total = 0
    for split in ("train", "val", "test"):
        with open(os.path.join(data_dir, f"{split}.samples"), "r", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                idx = np.array(line.rstrip("\n").rsplit("\t", 1)[1].split(","), dtype=int)
                in_tags = (idx >= tag_block[0]) & (idx < tag_block[1])
                ragged += int(in_tags.sum() > 1)
                total += 1
    stats = _read_kv(os.path.join(data_dir, "stats_train.txt"))
    return {
        "ragged_share": ragged / total,
        "requests": total,
        "dict_width": offset,
        "impression_rate": float(stats["impression_rate"]),
        "cpm": float(stats["cpm"]),
    }
