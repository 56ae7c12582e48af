"""`rtb ingest` against a per-record reference.

The reference below parses, derives, counts and featurizes one record
at a time, as ingest did before it became column-wise, and writes the
sample files one line at a time. Ingest must write every file it does,
byte for byte: on perfbench's one-hot and tagged logs, on a malformed
log, and at min_count 1 and 50.
"""

import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from rtblab.cli import main as cli_main
from rtblab.data import (
    BROWSERS,
    DEFAULT_SCHEMA,
    DIM_BINS,
    FIELDS,
    MS_PER_DAY,
    OSES,
    FeatureDict,
    PackedRequests,
    SampleSet,
    dataset_statistics,
    split_day_indices,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import workloads  # noqa: E402  (perfbench's synthetic market and user tags)


@dataclass
class RawRecord:
    timestamp: int
    user_agent: str
    region: str
    city: str
    ad_exchange: str
    domain: str
    slot_id: str
    slot_visibility: str
    slot_format: str
    slot_width: int
    slot_height: int
    user_tags: frozenset
    bid_price: float
    pay_price: float
    win: bool
    click: bool


def parse_cell(raw, typ):
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    if typ == "str":
        return raw
    if typ == "tags":
        return frozenset(t for t in raw.split(",") if t and t != "null")
    if typ == "price":
        return float(raw) if raw != "" else float("nan")
    if raw not in ("0", "1"):
        raise ValueError(f"flag cell must be 0/1, got {raw!r}")
    return raw == "1"


def parse_records(path, schema):
    names = [n for n, _ in schema]
    types = dict(schema)
    records, skipped = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split("\t")
            if len(cells) != len(names):
                skipped += 1
                continue
            try:
                row = {n: parse_cell(c, types[n]) for n, c in zip(names, cells)}
                rec = RawRecord(**{k: row[k] for k in dict(DEFAULT_SCHEMA)})
            except (ValueError, TypeError):
                skipped += 1
                continue
            if rec.win and not math.isnan(rec.pay_price) and rec.pay_price > rec.bid_price:
                skipped += 1
                continue
            records.append(rec)
    return records, skipped


def bin_dimension(v):
    for edge in DIM_BINS:
        if v <= edge:
            return f"<={edge}"
    return f">{DIM_BINS[-1]}"


def derive_fields(rec):
    ua = rec.user_agent.lower()
    return {
        "weekday": str((rec.timestamp // MS_PER_DAY + 3) % 7),
        "hour": str((rec.timestamp // 3_600_000) % 24),
        "os": next((o for o in OSES if o in ua), None),
        "browser": next((b for b in BROWSERS if b in ua), None),
        "region": rec.region,
        "city": rec.city,
        "ad_exchange": rec.ad_exchange,
        "domain": rec.domain,
        "slot_id": rec.slot_id,
        "slot_width": bin_dimension(rec.slot_width),
        "slot_height": bin_dimension(rec.slot_height),
        "slot_visibility": rec.slot_visibility,
        "slot_format": rec.slot_format,
        "usertag": rec.user_tags,
    }


def build_dictionary(records, min_count):
    counts = {f: {} for f in FIELDS}
    for rec in records:
        cats = derive_fields(rec)
        for f in FIELDS:
            v = cats[f]
            for c in (sorted(v) if isinstance(v, frozenset) else [] if v is None else [v]):
                counts[f][c] = counts[f].get(c, 0) + 1
    maps = {f: {c: i for i, c in enumerate(c for c, k in counts[f].items()
                                           if k >= min_count)}
            for f in FIELDS}
    return FeatureDict(FIELDS, maps, min_count)


def featurize(rec, fdict):
    cats = derive_fields(rec)
    idx = []
    for f in fdict.fields:
        v = cats[f]
        if isinstance(v, frozenset):
            idx.extend(sorted({fdict.index(f, t) for t in v}) or [fdict.other_index(f)])
        else:
            idx.append(fdict.index(f, v))
    return idx


def save_samples(samples, path):
    ptr = samples.requests.ptr.tolist()
    idx = samples.requests.indices.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"samples 1 {samples.width}\n")
        for i in range(len(samples)):
            p = float(samples.prices[i])
            price = "" if math.isnan(p) else repr(p)
            cells = ",".join(str(j) for j in idx[ptr[i]:ptr[i + 1]])
            fh.write(f"{int(samples.timestamps[i])}\t{int(samples.wins[i])}\t"
                     f"{int(samples.clicks[i])}\t{float(samples.bids[i])!r}\t{price}\t"
                     f"{cells}\n")


def reference_ingest(log, out, min_count):
    records, _ = parse_records(log, DEFAULT_SCHEMA)
    fdict = build_dictionary(records, min_count)
    samples = SampleSet(
        PackedRequests.from_rows([featurize(r, fdict) for r in records], fdict.width),
        np.array([r.bid_price for r in records]), np.array([r.pay_price for r in records]),
        np.array([r.win for r in records]), np.array([r.click for r in records]),
        np.array([r.timestamp for r in records], dtype=np.int64), fdict.width)
    os.makedirs(out)
    fdict.save(os.path.join(out, "dict.txt"))
    for split, idx in zip(("train", "val", "test"), split_day_indices(samples.timestamps)):
        sub = samples.subset(np.sort(idx))
        save_samples(sub, os.path.join(out, f"{split}.samples"))
        stats = dataset_statistics(sub)
        stats.save(os.path.join(out, f"stats_{split}.txt"))
        stats.histogram.save(os.path.join(out, f"hist_{split}.tsv"))


# the malformed log edits row i when i % 97 is a key: it sets the given
# (column, cell) pairs, or with None drops the last cell
MALFORMED = {
    1: [(0, "12x")],                        # bad int
    2: [(9, "1_000")],                      # an int that int() reads
    3: [(14, "2")],                         # bad flag
    4: None,                                # short line
    5: [(13, "1e9"), (14, "1")],            # won at a price above the bid
    6: [(11, "null")],
    7: [(11, "")],
    8: [(11, "null,tag03,,tag01,tag03")],
    9: [(12, "abc")],                       # bad float
    10: [(13, "zz")],                       # bad price
    11: [(1, "Mozilla WINDOWS Firefox")],
    12: [(10, "99999")],
    13: [(13, ""), (14, "1")],              # won with no price
}


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    root = tmp_path_factory.mktemp("logs")
    spec = root / "spec.txt"
    spec.write_text(workloads.synth_spec_text())
    out = {}
    for shape in ("one-hot", "tagged"):
        raw = root / shape
        assert cli_main(["synth", str(spec), "--out", str(raw), "--seed", "1"]) == 0
        if shape == "tagged":
            workloads.add_user_tags(str(raw / "log.tsv"), 1)
        out[shape] = raw / "log.tsv"
    lines = out["tagged"].read_text().split("\n")
    bad = []
    for i, line in enumerate(lines[:-1]):
        cells = line.split("\t")
        edits = MALFORMED.get(i % 97, [])
        if edits is None:
            cells.pop()
        for col, cell in edits or []:
            cells[col] = cell
        bad.append("\t".join(cells))
        if i % 97 == 14:
            bad.append("")                                # an empty line
    out["malformed"] = root / "malformed.tsv"
    out["malformed"].write_text("\n".join(bad) + "\n")
    return out


@pytest.mark.parametrize("min_count", [1, 50])
@pytest.mark.parametrize("shape", ["one-hot", "tagged", "malformed"])
def test_ingest_writes_the_per_record_reference_bytes(logs, tmp_path, capsys, shape,
                                                      min_count):
    log = logs[shape]
    reference_ingest(log, tmp_path / "ref", min_count)
    schema = tmp_path / "schema.txt"
    schema.write_text("".join(f"{n}:{t}\n" for n, t in DEFAULT_SCHEMA))
    assert cli_main(["ingest", str(log), "--schema", str(schema), "--out",
                     str(tmp_path / "new"), "--set", f"min_count={min_count}"]) == 0
    if shape == "malformed":
        assert "skipped" in capsys.readouterr().out
    names = sorted(os.listdir(tmp_path / "ref"))
    assert sorted(os.listdir(tmp_path / "new")) == names and len(names) == 10
    for name in names:
        assert ((tmp_path / "new" / name).read_bytes()
                == (tmp_path / "ref" / name).read_bytes()), name
