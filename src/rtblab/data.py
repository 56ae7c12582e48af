"""Auction-log ingestion: parsing, categorical dictionaries, one-hot
featurization, day splits, and dataset statistics.

Input logs are UTF-8 TSV with a schema file declaring `name:type` per
line. A losing row carries an empty pay_price (the market price is
censored). Featurization turns each record into the active indices of a
sparse one-hot vector, exactly one per field; the usertag block is the
single exception, where every tag is its own binary feature. Requests
travel as PackedRequests batches, from the sample file to the replay:
one CSR layout whose `dot` sums each row the same way in every batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# feature field order is fixed; dictionaries and vectors follow it
FIELDS = (
    "weekday",
    "hour",
    "os",
    "browser",
    "region",
    "city",
    "ad_exchange",
    "domain",
    "slot_id",
    "slot_width",
    "slot_height",
    "slot_visibility",
    "slot_format",
    "usertag",
)

OSES = ("windows", "ios", "mac", "android", "linux")
BROWSERS = ("chrome", "sogou", "maxthon", "safari", "firefox", "theworld", "opera", "ie")
DIM_BINS = (160, 300, 468, 728, 960)

MS_PER_DAY = 86_400_000

COLUMN_TYPES = {"int": int, "float": float, "str": str}


@dataclass
class RawRecord:
    timestamp: int  # epoch milliseconds
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
    pay_price: float  # nan when censored (lost auction)
    win: bool
    click: bool


# the standard column layout written by the synthesizer and expected by ingest
DEFAULT_SCHEMA = (
    ("timestamp", "int"),
    ("user_agent", "str"),
    ("region", "str"),
    ("city", "str"),
    ("ad_exchange", "str"),
    ("domain", "str"),
    ("slot_id", "str"),
    ("slot_visibility", "str"),
    ("slot_format", "str"),
    ("slot_width", "int"),
    ("slot_height", "int"),
    ("user_tags", "tags"),
    ("bid_price", "float"),
    ("pay_price", "price"),
    ("win", "flag"),
    ("click", "flag"),
)

_VALID_COLUMN_TYPES = {"int", "float", "str", "tags", "price", "flag"}
_REQUIRED_COLUMNS = {name for name, _ in DEFAULT_SCHEMA}


def load_schema(path) -> tuple:
    """Read a `name:type` schema file into an ordered column list."""
    cols = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                name, _, typ = line.partition(":")
                name, typ = name.strip(), typ.strip()
                if typ not in _VALID_COLUMN_TYPES:
                    raise ConfigError(f"unknown column type {typ!r} in schema {path}")
                cols.append((name, typ))
    except OSError as exc:
        raise ConfigError(f"cannot read schema file {path}: {exc}") from exc
    missing = _REQUIRED_COLUMNS - {n for n, _ in cols}
    if missing:
        raise ConfigError(f"schema missing required columns: {sorted(missing)}")
    return tuple(cols)


def save_schema(path, schema=DEFAULT_SCHEMA) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, typ in schema:
            fh.write(f"{name}:{typ}\n")


def _parse_cell(raw: str, typ: str):
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
    if typ == "flag":
        if raw not in ("0", "1"):
            raise ValueError(f"flag cell must be 0/1, got {raw!r}")
        return raw == "1"
    raise ConfigError(f"unknown column type {typ!r}")


def parse_log(path, schema=DEFAULT_SCHEMA) -> tuple:
    """Parse a TSV log into (records, skipped_count), in file order.

    Malformed lines are skipped and counted; more than 10% malformed
    aborts (that usually means the schema does not match the file).
    """
    names = [n for n, _ in schema]
    types = dict(schema)
    records, skipped, total = [], 0, 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read log {path}: {exc}") from exc
    with fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            total += 1
            cells = line.split("\t")
            if len(cells) != len(names):
                skipped += 1
                continue
            try:
                row = {n: _parse_cell(c, types[n]) for n, c in zip(names, cells)}
                rec = RawRecord(**{k: row[k] for k in _REQUIRED_COLUMNS})
            except (ValueError, TypeError):
                skipped += 1
                continue
            if rec.win and not math.isnan(rec.pay_price) and rec.pay_price > rec.bid_price:
                skipped += 1  # violates second-price accounting
                continue
            records.append(rec)
    # the wrong-schema heuristic needs enough lines to mean anything
    if total >= 20 and skipped > 0.10 * total:
        raise DataError(
            f"{skipped}/{total} malformed lines in {path}; schema probably wrong"
        )
    return records, skipped


def _bin_dimension(v: int) -> str:
    for edge in DIM_BINS:
        if v <= edge:
            return f"<={edge}"
    return f">{DIM_BINS[-1]}"


def derive_fields(record: RawRecord) -> dict:
    """Per-field categorical values for one record.

    Values are strings, None (maps straight to the field's OTHER bucket),
    or a frozenset for the multi-valued usertag field.
    """
    day_ms = record.timestamp // MS_PER_DAY
    weekday = (day_ms + 3) % 7  # epoch day 0 was a Thursday; 0 = Monday
    hour = (record.timestamp // 3_600_000) % 24
    ua = record.user_agent.lower()
    os_name = next((o for o in OSES if o in ua), None)
    browser = next((b for b in BROWSERS if b in ua), None)
    return {
        "weekday": str(weekday),
        "hour": str(hour),
        "os": os_name,
        "browser": browser,
        "region": record.region,
        "city": record.city,
        "ad_exchange": record.ad_exchange,
        "domain": record.domain,
        "slot_id": record.slot_id,
        "slot_width": _bin_dimension(record.slot_width),
        "slot_height": _bin_dimension(record.slot_height),
        "slot_visibility": record.slot_visibility,
        "slot_format": record.slot_format,
        "usertag": record.user_tags,
    }


@dataclass
class FeatureDict:
    """Per-field category→index maps with a trailing OTHER slot per field."""

    fields: tuple
    maps: dict            # field -> {category: local index}
    min_count: int

    def __post_init__(self):
        self._offsets = {}
        off = 0
        for f in self.fields:
            self._offsets[f] = off
            off += len(self.maps[f]) + 1  # + OTHER
        self._width = off

    @property
    def width(self) -> int:
        return self._width

    def field_width(self, f: str) -> int:
        return len(self.maps[f]) + 1

    def offset(self, f: str) -> int:
        return self._offsets[f]

    def other_index(self, f: str) -> int:
        return self._offsets[f] + len(self.maps[f])

    def index(self, f: str, category) -> int:
        """Global index for a category; unknown/None goes to OTHER."""
        if category is None:
            return self.other_index(f)
        local = self.maps[f].get(category)
        if local is None:
            return self.other_index(f)
        return self._offsets[f] + local

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("featuredict 1\n")
            fh.write(f"min_count {self.min_count}\n")
            for f in self.fields:
                cats = sorted(self.maps[f], key=self.maps[f].get)
                fh.write(f"field {f} {len(cats)}\n")
                for c in cats:
                    fh.write(c + "\n")

    @classmethod
    def load(cls, path) -> "FeatureDict":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise DataError(f"cannot read feature dictionary {path}: {exc}") from exc
        if not lines or not lines[0].startswith("featuredict"):
            raise DataError(f"{path} is not a feature dictionary file")
        try:
            min_count = int(lines[1].split()[1])
            fields, maps = [], {}
            i = 2
            while i < len(lines):
                tag, name, n = lines[i].split()
                if tag != "field":
                    raise DataError(f"{path}: bad dictionary line {lines[i]!r}")
                n = int(n)
                maps[name] = {lines[i + 1 + j]: j for j in range(n)}
                fields.append(name)
                i += 1 + n
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed feature dictionary: {exc}") from exc
        return cls(tuple(fields), maps, min_count)


def build_feature_dictionary(records, min_count: int) -> FeatureDict:
    """Count categories per field and keep those seen >= min_count times.

    Index order is deterministic: field order, then first appearance in
    the corpus, a record's tags taken in sorted order. Rarer categories
    fall into the per-field OTHER bucket.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts = {f: {} for f in FIELDS}  # insertion order = first appearance
    n = 0
    for rec in records:
        n += 1
        cats = derive_fields(rec)
        for f in FIELDS:
            v = cats[f]
            if v is None:
                continue
            if isinstance(v, frozenset):
                for tag in sorted(v):   # not set order, which follows the hash seed
                    counts[f][tag] = counts[f].get(tag, 0) + 1
            else:
                counts[f][v] = counts[f].get(v, 0) + 1
    if n == 0:
        raise DataError("cannot build a feature dictionary from an empty corpus")
    maps = {}
    for f in FIELDS:
        kept = [c for c, k in counts[f].items() if k >= min_count]
        maps[f] = {c: i for i, c in enumerate(kept)}
    return FeatureDict(FIELDS, maps, min_count)


def featurize(record: RawRecord, fdict: FeatureDict) -> np.ndarray:
    """Active indices of one record: one per field; usertag may
    contribute several."""
    cats = derive_fields(record)
    idx = []
    for f in fdict.fields:
        v = cats.get(f)
        if isinstance(v, frozenset):
            if not v:
                idx.append(fdict.other_index(f))
            else:
                tag_idx = sorted({fdict.index(f, t) for t in v})
                idx.extend(tag_idx)
        else:
            idx.append(fdict.index(f, v))
    return np.asarray(idx, dtype=np.int64)


@dataclass
class SampleSet:
    """Columnar featurized log: requests plus bid/price/win/click columns.

    prices are nan where the auction was lost (market price censored).
    """

    requests: "PackedRequests"
    bids: np.ndarray
    prices: np.ndarray
    wins: np.ndarray
    clicks: np.ndarray
    timestamps: np.ndarray
    width: int

    def __len__(self) -> int:
        return len(self.requests)

    def subset(self, idx) -> "SampleSet":
        idx = np.asarray(idx)
        return SampleSet(
            self.requests.rows(idx),
            self.bids[idx],
            self.prices[idx],
            self.wins[idx],
            self.clicks[idx],
            self.timestamps[idx],
            self.width,
        )

    @classmethod
    def from_records(cls, records, fdict: FeatureDict) -> "SampleSet":
        return cls(
            PackedRequests.from_rows([featurize(r, fdict) for r in records], fdict.width),
            np.array([r.bid_price for r in records], dtype=np.float64),
            np.array([r.pay_price for r in records], dtype=np.float64),
            np.array([r.win for r in records], dtype=bool),
            np.array([r.click for r in records], dtype=bool),
            np.array([r.timestamp for r in records], dtype=np.int64),
            fdict.width,
        )

    def save(self, path) -> None:
        ptr = self.requests.ptr.tolist()
        tokens = [str(j) for j in self.requests.indices.tolist()]
        columns = zip(self.timestamps.tolist(), self.wins.tolist(), self.clicks.tolist(),
                      self.bids.tolist(), self.prices.tolist(), ptr[:-1], ptr[1:])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"samples 1 {self.width}\n")
            for t, w, c, b, p, lo, hi in columns:
                price = "" if math.isnan(p) else repr(p)
                idx = ",".join(tokens[lo:hi])
                fh.write(f"{t}\t{int(w)}\t{int(c)}\t{b!r}\t{price}\t{idx}\n")

    @classmethod
    def load(cls, path) -> "SampleSet":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = fh.readline().split()
                if len(header) != 3 or header[0] != "samples":
                    raise DataError(f"{path} is not a sample file")
                rows = [line.rstrip("\n").split("\t") for line in fh]
        except OSError as exc:
            raise DataError(f"cannot read samples {path}: {exc}") from exc
        if any(len(r) != 6 for r in rows):
            raise DataError(f"{path}: a sample line does not have 6 columns")
        if not rows:
            raise DataError(f"{path} holds no samples")
        ts, wins, clicks, bids, prices, idx = zip(*rows)
        n = len(rows)
        counts = [s.count(",") + 1 if s else 0 for s in idx]
        active = ",".join(s for s in idx if s)
        try:
            indices = (np.fromstring(active, dtype=np.int64, sep=",") if active
                       else np.zeros(0, np.int64))
            if indices.size != sum(counts):
                raise ValueError("unreadable request indices")
            return cls(
                PackedRequests(indices, int(header[2]), counts),
                np.fromiter(map(float, bids), np.float64, n),
                np.fromiter((float(p) if p else float("nan") for p in prices),
                            np.float64, n),
                np.array(wins) == "1",
                np.array(clicks) == "1",
                np.fromiter(map(int, ts), np.int64, n),
                int(header[2]),
            )
        except ValueError as exc:
            raise DataError(f"{path}: malformed sample file: {exc}") from exc


def split_day_indices(timestamps_ms: np.ndarray, fractions=(0.60, 0.15, 0.25)) -> tuple:
    """Assign whole days, chronologically, to train / validation / test.

    Day counts: train rounds half-up, validation floors (min 1), test
    takes the remainder. Needs at least 3 distinct days.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    days = np.asarray(timestamps_ms) // MS_PER_DAY
    uniq = np.unique(days)
    if uniq.size < 3:
        raise DataError(f"need >= 3 distinct days to split, got {uniq.size}")
    n_train = max(1, int(fractions[0] * uniq.size + 0.5))
    n_val = max(1, int(fractions[1] * uniq.size))
    if n_train + n_val >= uniq.size:
        n_train = uniq.size - n_val - 1
    train_days = set(uniq[:n_train].tolist())
    val_days = set(uniq[n_train : n_train + n_val].tolist())
    idx = np.arange(days.size)
    in_train = np.isin(days, list(train_days))
    in_val = np.isin(days, list(val_days))
    return idx[in_train], idx[in_val], idx[~in_train & ~in_val]


@dataclass
class PriceHistogram:
    """Empirical market-price distribution over integer prices 0..max."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)

    @property
    def empty(self) -> bool:
        return self.probs.size == 0

    @property
    def max_price(self) -> int:
        return self.probs.size - 1

    @classmethod
    def from_prices(cls, prices) -> "PriceHistogram":
        prices = np.asarray(prices, dtype=np.float64)
        prices = prices[~np.isnan(prices)]
        if prices.size == 0:
            return cls(np.zeros(0))
        ints = np.floor(np.maximum(prices, 0.0)).astype(np.int64)
        counts = np.bincount(ints)
        return cls(counts / counts.sum())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for p, q in enumerate(self.probs):
                fh.write(f"{p}\t{float(q)!r}\n")

    @classmethod
    def load(cls, path) -> "PriceHistogram":
        probs = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    _, q = line.split("\t")
                    probs.append(float(q))
        except OSError as exc:
            raise DataError(f"cannot read price histogram {path}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"{path}:{len(probs) + 1}: malformed histogram row: "
                            f"{exc}") from exc
        return cls(np.array(probs))


def kl_divergence(p: PriceHistogram, q: PriceHistogram, smoothing: float = 1e-6) -> float:
    """KL(p || q) over the union support, with additive smoothing."""
    n = max(p.probs.size, q.probs.size, 1)
    pv = np.zeros(n)
    qv = np.zeros(n)
    pv[: p.probs.size] = p.probs
    qv[: q.probs.size] = q.probs
    pv = pv + smoothing
    qv = qv + smoothing
    pv /= pv.sum()
    qv /= qv.sum()
    return float(np.sum(pv * np.log(pv / qv)))


@dataclass
class DatasetStats:
    n: int
    d: int
    impression_rate: float
    cpm: float  # cost per thousand bid requests
    histogram: PriceHistogram

    @property
    def w_max(self) -> float:
        return float(self.histogram.max_price) if not self.histogram.empty else 0.0

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n = {self.n}\n")
            fh.write(f"d = {self.d}\n")
            fh.write(f"impression_rate = {float(self.impression_rate)!r}\n")
            fh.write(f"cpm = {float(self.cpm)!r}\n")

    @classmethod
    def load(cls, path, histogram: PriceHistogram) -> "DatasetStats":
        kv = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    k, _, v = line.partition("=")
                    kv[k.strip()] = v.strip()
        except OSError as exc:
            raise DataError(f"cannot read dataset stats {path}: {exc}") from exc
        try:
            return cls(int(kv["n"]), int(kv["d"]), float(kv["impression_rate"]),
                       float(kv["cpm"]), histogram)
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: missing or malformed entry {exc}") from exc


class PackedRequests:
    """A batch of bid requests: sparse one-hot rows in CSR form.

    Every row's active indices sit back to back in one int64 array `idx`,
    and row i holds idx[ptr[i]:ptr[i + 1]] for the n + 1 offsets `ptr`. A
    row may be empty (no active index). `k` is the index count every row
    shares (one hot per field is the common case), or -1 when the counts
    differ; it only lets `rows` and `dot` skip work, never changes a result.
    """

    __slots__ = ("width", "idx", "ptr", "k")

    def __init__(self, indices, width: int, counts=None):
        """indices is an (n, k) index matrix or, with counts, every row's
        indices back to back (row i holds counts[i] of them)."""
        indices = np.asarray(indices, dtype=np.int64)
        if counts is None:
            n, k = indices.shape
            ptr = np.arange(n + 1) * k
        else:
            counts = np.asarray(counts, dtype=np.int64)
            ptr = np.concatenate([[0], np.cumsum(counts)])
            k = _shared_count(counts)
        if ptr.size == 1:
            raise DataError("cannot pack an empty request batch")
        self.idx, self.ptr, self.width, self.k = indices.ravel(), ptr, int(width), int(k)

    @classmethod
    def _wrap(cls, idx, ptr, width: int, k: int) -> "PackedRequests":
        """A batch over these arrays as they are: no check, no copy."""
        out = object.__new__(cls)
        out.idx, out.ptr, out.width, out.k = idx, ptr, width, k
        return out

    @classmethod
    def from_rows(cls, rows, width: int) -> "PackedRequests":
        """Pack a sequence of per-row index sequences."""
        rows = [np.asarray(r, dtype=np.int64) for r in rows]
        return cls(np.concatenate([np.zeros(0, np.int64), *rows]), width,
                   [r.size for r in rows])

    def __len__(self) -> int:
        return self.ptr.size - 1

    @property
    def indices(self) -> np.ndarray:
        """Every row's active indices, back to back."""
        return self.idx

    @property
    def counts(self) -> np.ndarray:
        """Active indices per row."""
        return np.diff(self.ptr)

    def __eq__(self, other):
        return (
            isinstance(other, PackedRequests)
            and self.width == other.width
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.idx, other.idx)
        )

    def dot(self, w: np.ndarray) -> np.ndarray:
        """Per-row sum of w over active indices (x @ w for one-hot x).

        Every batch sums a row r as w[r[0]] + w[r[1:]].sum(), so a row
        prices the same bits in any batch that holds it."""
        if self.k > 0 or np.all(self.counts):
            return np.add.reduceat(w[self.idx], self.ptr[:-1])
        # reduceat gives an empty segment the next element, not 0: reduce
        # over the non-empty rows, whose segments are then contiguous
        filled = np.flatnonzero(self.counts)
        out = np.zeros(len(self))
        out[filled] = np.add.reduceat(w[self.idx], self.ptr[filled])
        return out

    def scatter(self, row_values: np.ndarray) -> np.ndarray:
        """Accumulate per-row values onto active indices (x^T @ v)."""
        return np.bincount(self.indices, weights=np.repeat(row_values, self.counts),
                           minlength=self.width)

    def rows(self, ids) -> "PackedRequests":
        """The batch of rows ids, in that order."""
        if self.k >= 0:
            # every row holds k indices: gather them as an (n, k) matrix
            # (a uniform batch's first m + 1 offsets are those of any m rows)
            picked = self.idx.reshape(self.ptr.size - 1, self.k).take(ids, axis=0)
            m = picked.shape[0]
            ptr = self.ptr[: m + 1] if m < self.ptr.size else np.arange(m + 1) * self.k
            return self._wrap(picked.ravel(), ptr, self.width, self.k)
        ids = np.asarray(ids)
        starts = self.ptr[ids]
        counts = self.ptr[ids + 1] - starts
        ptr = np.concatenate([[0], np.cumsum(counts)])
        # entry j of picked row i sits at starts[i] + j in self.idx
        shift = np.repeat(starts - ptr[:-1], counts)
        return self._wrap(self.idx[shift + np.arange(ptr[-1])], ptr, self.width,
                          _shared_count(counts))

    def dense(self) -> np.ndarray:
        out = np.zeros((len(self), self.width))
        out[np.repeat(np.arange(len(self)), self.counts), self.indices] = 1.0
        return out


def _shared_count(counts) -> int:
    """The count every row holds, or -1 when the rows differ (or there are none)."""
    return int(counts[0]) if counts.size and np.all(counts == counts[0]) else -1


def dataset_statistics(samples: SampleSet) -> DatasetStats:
    """Impression rate, spend per 1000 bid requests, and the won-price histogram."""
    n = len(samples)
    if n == 0:
        raise DataError("dataset_statistics needs a non-empty sample set")
    wins = samples.wins
    won_prices = samples.prices[wins & ~np.isnan(samples.prices)]
    spend = float(won_prices.sum()) if won_prices.size else 0.0
    return DatasetStats(
        n=n,
        d=samples.width,
        impression_rate=float(wins.mean()),
        cpm=1000.0 * spend / n,
        histogram=PriceHistogram.from_prices(won_prices),
    )
