"""Auction-log ingestion: parsing, categorical dictionaries, one-hot
featurization, day splits, and dataset statistics.

Input logs are UTF-8 TSV with a schema file declaring `name:type` per
line. A losing row carries an empty pay_price (the market price is
censored). Ingest works on columns, never on one object per record:
parse_log reads the log a chunk at a time into a ParsedLog, which holds
each feature field as integer codes of its categories (derived once per
distinct raw value) and the bid/price/win/click/timestamp columns as
arrays. build_feature_dictionary keeps the categories seen often enough,
and SampleSet.from_records writes the featurized CSR arrays directly.
Each request is the active indices of a sparse one-hot vector, exactly
one per field; the usertag block is the single exception, where every
tag is its own binary feature. Requests travel as PackedRequests
batches, from the sample file to the replay: one CSR layout whose `dot`
sums each row the same way in every batch.
"""

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat

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

# rows of one field's codes that have no category (an unmatched user agent)
NO_CATEGORY = -1
# the one multi-valued field: every tag of a request is its own feature
TAG_FIELD = "usertag"
# log text read per pass, a few hundred lines: ingest keeps no Python
# object per line beyond one chunk, and the chunk stays under the 128 KiB
# above which malloc maps (and on free, raises that threshold), so the
# heap stays as small as reading line by line left it
CHUNK_CHARS = 1 << 16

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
_REQUIRED_TYPES = dict(DEFAULT_SCHEMA)


def load_schema(path) -> tuple:
    """Read a `name:type` schema file into an ordered column list. Extra
    columns may have any type; the required ones keep their standard types."""
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
    types = dict(cols)
    missing = _REQUIRED_TYPES.keys() - types.keys()
    if missing:
        raise ConfigError(f"schema missing required columns: {sorted(missing)}")
    retyped = sorted(n for n, t in _REQUIRED_TYPES.items() if types[n] != t)
    if retyped:
        raise ConfigError(f"schema {path} changes the type of required columns "
                          f"{retyped}; they must keep {_REQUIRED_TYPES}")
    return tuple(cols)


def save_schema(path, schema=DEFAULT_SCHEMA) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, typ in schema:
            fh.write(f"{name}:{typ}\n")


def _price(raw: str) -> float:
    return float(raw) if raw != "" else float("nan")


# the cell parser of each column type that can refuse a cell (a flag
# cell is 0 or 1, and any other raises KeyError)
_CELL_PARSERS = {"int": int, "float": float, "price": _price,
                 "flag": {"0": False, "1": True}.__getitem__}
_REFUSED = (ValueError, TypeError, KeyError)


def _parse_column(cells, parse) -> tuple:
    """(values, bad): parse mapped over a column, and the rows whose cell
    it refused (None when it refused none). The column is parsed cell by
    cell only after the one map has raised."""
    try:
        return list(map(parse, cells)), None
    except _REFUSED:
        pass
    values, bad = [], []
    for i, cell in enumerate(cells):
        try:
            values.append(parse(cell))
        except _REFUSED:
            values.append(None)
            bad.append(i)
    return values, bad


def _bin_dimension(v: int) -> str:
    for edge in DIM_BINS:
        if v <= edge:
            return f"<={edge}"
    return f">{DIM_BINS[-1]}"


def _os_of(user_agent: str):
    ua = user_agent.lower()
    return next((o for o in OSES if o in ua), None)


def _browser_of(user_agent: str):
    ua = user_agent.lower()
    return next((b for b in BROWSERS if b in ua), None)


def _tags_of(raw: str) -> list:
    """A user_tags cell's distinct tags in sorted order ("null" is no tag);
    sorted, not set order, which follows the hash seed."""
    tags = set(raw.split(","))
    tags.discard("")
    tags.discard("null")
    return sorted(tags)


class _FieldCoder:
    """Codes one field's categories 0, 1, ... in order of first appearance.

    A raw column value is turned into its category by `derive` (the value
    itself when None) once per distinct value in a chunk; a category of
    None gets NO_CATEGORY. With `multi`, derive returns a list of
    categories and a row holds all of them."""

    def __init__(self, derive=None, multi=False):
        self.derive, self.multi = derive, multi
        self.index = {}     # category -> code
        self.parts = []     # one code array per chunk
        self.counts = []    # with multi: codes per row, one array per chunk

    def add(self, values) -> None:
        """Code one chunk's column; a chunk's distinct values are taken in
        order of first appearance, so codes follow it across chunks."""
        memo, index = {}, self.index    # raw value -> code (tuple with multi)
        for v in dict.fromkeys(values):
            cat = v if self.derive is None else self.derive(v)
            if self.multi:
                memo[v] = tuple([index.setdefault(c, len(index)) for c in cat])
            else:
                memo[v] = NO_CATEGORY if cat is None else index.setdefault(cat, len(index))
        codes = map(memo.__getitem__, values)
        if self.multi:
            rows = list(codes)
            self.counts.append(np.fromiter(map(len, rows), np.int64, len(rows)))
            codes = chain.from_iterable(rows)
        self.parts.append(np.fromiter(codes, np.int64))

    def codes(self) -> np.ndarray:
        return np.concatenate([np.zeros(0, np.int64), *self.parts])


@dataclass
class ParsedLog:
    """A parsed log, as columns in file order.

    Each feature field f is coded: cats[f] lists its categories in order
    of first appearance, and codes[f] gives each row's category as a
    position in cats[f], or NO_CATEGORY
    (an unmatched user agent, which maps straight to OTHER). The
    multi-valued TAG_FIELD holds every row's distinct tags in sorted
    order, back to back, and tag_ptr holds the n + 1 row offsets.
    """

    cats: dict
    codes: dict
    tag_ptr: np.ndarray
    timestamps: np.ndarray      # int64 epoch milliseconds
    bids: np.ndarray
    prices: np.ndarray          # nan when censored (lost auction)
    wins: np.ndarray
    clicks: np.ndarray

    def __len__(self) -> int:
        return self.timestamps.size


# the raw-log column each feature field comes from, and the map from a
# column value to the field's category (None: the value is the category);
# weekday and hour are columns that ingest derives from the timestamp
_FIELD_SOURCES = {
    "weekday": ("weekday", str),
    "hour": ("hour", str),
    "os": ("user_agent", _os_of),
    "browser": ("user_agent", _browser_of),
    "region": ("region", None),
    "city": ("city", None),
    "ad_exchange": ("ad_exchange", None),
    "domain": ("domain", None),
    "slot_id": ("slot_id", None),
    "slot_width": ("slot_width", _bin_dimension),
    "slot_height": ("slot_height", _bin_dimension),
    "slot_visibility": ("slot_visibility", None),
    "slot_format": ("slot_format", None),
    "usertag": ("user_tags", _tags_of),
}
# ParsedLog's numeric columns and the raw-log column of each
_NUMERIC = (("timestamps", "timestamp", np.int64), ("bids", "bid_price", np.float64),
            ("prices", "pay_price", np.float64), ("wins", "win", bool),
            ("clicks", "click", bool))


class _LogColumns:
    """The kept rows of a log, added chunk by chunk as field codes and
    numeric arrays."""

    def __init__(self):
        self.coders = {f: _FieldCoder(derive, multi=f == TAG_FIELD)
                       for f, (_, derive) in _FIELD_SOURCES.items()}
        self.numeric = {key: [] for key, _, _ in _NUMERIC}

    def add(self, col: dict) -> None:
        """Add one chunk: raw-log column name -> kept rows' values."""
        ts = col["timestamp"]
        # epoch day 0 was a Thursday; 0 = Monday
        col["weekday"] = ((ts // MS_PER_DAY + 3) % 7).tolist()
        col["hour"] = ((ts // 3_600_000) % 24).tolist()
        for f, (name, _) in _FIELD_SOURCES.items():
            self.coders[f].add(col[name])
        for key, name, _ in _NUMERIC:
            self.numeric[key].append(col[name])

    def log(self) -> ParsedLog:
        cats = {f: list(coder.index) for f, coder in self.coders.items()}
        codes = {f: coder.codes() for f, coder in self.coders.items()}
        tags = np.concatenate([np.zeros(0, np.int64), *self.coders[TAG_FIELD].counts])
        num = {key: np.concatenate([np.zeros(0, dtype), *self.numeric[key]])
               for key, _, dtype in _NUMERIC}
        return ParsedLog(cats, codes, np.concatenate([[0], np.cumsum(tags)]),
                         **num)


def _parse_lines(lines, names, parsers, out: _LogColumns) -> int:
    """Parse one chunk of non-empty lines into out; returns how many of
    them it skipped: those with another number of cells than the schema
    has columns, a cell a parser refuses, or a won price above the bid."""
    rows = [line.split("\t") for line in lines]
    rows = [r for r in rows if len(r) == len(names)]
    if not rows:
        return len(lines)
    cells = list(zip(*rows))
    ok = np.ones(len(rows), dtype=bool)
    for i, parse in parsers:
        cells[i], bad = _parse_column(cells[i], parse)
        if bad:
            ok[bad] = False
    col = dict(zip(names, cells))   # a repeated name keeps its last column
    if not ok.all():
        col = {name: list(compress(v, ok)) for name, v in col.items()}
    for _, name, dtype in _NUMERIC:
        col[name] = np.array(col[name], dtype)
    # a won price above the bid violates second-price accounting
    price = col["pay_price"]
    keep = ~(col["win"] & ~np.isnan(price) & (price > col["bid_price"]))
    if not keep.all():
        col = {name: v[keep] if isinstance(v, np.ndarray) else list(compress(v, keep))
               for name, v in col.items()}
    out.add(col)
    return len(lines) - int(np.count_nonzero(keep))


def _line_chunks(fh):
    """Lists of the non-empty lines of fh, about CHUNK_CHARS of text each."""
    carry = ""
    for text in iter(lambda: fh.read(CHUNK_CHARS), ""):
        head, _, carry = (carry + text).rpartition("\n")
        yield [line for line in head.split("\n") if line]
    if carry:
        yield [carry]


def parse_log(path, schema=DEFAULT_SCHEMA) -> tuple:
    """Parse a TSV log into (ParsedLog, skipped_count), in file order.

    The log is read CHUNK_CHARS at a time, and each chunk is parsed as
    columns: every line split once, each column parsed with one map, each
    field's categories derived once per distinct value. Empty lines are
    ignored; malformed lines are skipped and counted, and more than 10%
    malformed aborts (that usually means the schema does not match the
    file).
    """
    names = [n for n, _ in schema]
    types = dict(schema)
    parsers = [(i, _CELL_PARSERS[types[n]]) for i, n in enumerate(names)
               if types[n] in _CELL_PARSERS]
    out = _LogColumns()
    skipped, total = 0, 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read log {path}: {exc}") from exc
    with fh:
        for lines in _line_chunks(fh):
            total += len(lines)
            skipped += _parse_lines(lines, names, parsers, out)
    # the wrong-schema heuristic needs enough lines to mean anything
    if total >= 20 and skipped > 0.10 * total:
        raise DataError(
            f"{skipped}/{total} malformed lines in {path}; schema probably wrong"
        )
    return out.log(), skipped


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


def build_feature_dictionary(log: ParsedLog, min_count: int) -> FeatureDict:
    """Keep each field's categories seen in >= min_count rows.

    Index order is deterministic: field order, then first appearance in
    the log, a row's tags taken in sorted order. Rarer categories fall
    into the per-field OTHER bucket.
    """
    if len(log) == 0:
        raise DataError("cannot build a feature dictionary from an empty corpus")
    maps = {}
    for f in FIELDS:
        codes = log.codes[f]
        rows = np.bincount(codes[codes != NO_CATEGORY], minlength=len(log.cats[f]))
        kept = np.flatnonzero(rows >= min_count).tolist()
        maps[f] = {log.cats[f][j]: i for i, j in enumerate(kept)}
    return FeatureDict(FIELDS, maps, min_count)


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
    def from_records(cls, log: ParsedLog, fdict: FeatureDict) -> "SampleSet":
        """Featurize a parsed log. A row's active indices follow the field
        order, one per field, except in the TAG_FIELD block: the row's
        known tags in index order, then one OTHER for any unknown ones,
        or OTHER alone when the row has no tag."""
        n, width = len(log), fdict.width
        blocks = []                 # (indices, per-row counts or None for 1)
        for f in fdict.fields:
            # a field's global index by code; the last entry serves NO_CATEGORY
            known = fdict.maps[f]
            lut = np.array([known.get(c, -1) for c in log.cats[f]] + [-1], np.int64)
            lut = np.where(lut < 0, fdict.other_index(f), fdict.offset(f) + lut)
            if f != TAG_FIELD:
                blocks.append((lut[log.codes[f]], None))
                continue
            # sort and deduplicate each row's indices at once as row * width + index
            rows = np.repeat(np.arange(n), np.diff(log.tag_ptr))
            untagged = np.flatnonzero(log.tag_ptr[1:] == log.tag_ptr[:-1])
            keys = np.unique(np.concatenate([rows * width + lut[log.codes[f]],
                                             untagged * width + fdict.other_index(f)]))
            blocks.append((keys % width, np.bincount(keys // width, minlength=n)))
        counts = sum(np.ones(n, np.int64) if c is None else c for _, c in blocks)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        idx = np.empty(ptr[-1], np.int64)
        at = ptr[:-1].copy()        # where each row's next index goes
        for values, c in blocks:
            if c is None:
                idx[at] = values
                at += 1
            else:
                # entry j of a row's block goes to at + j
                starts = np.concatenate([[0], np.cumsum(c)[:-1]])
                idx[np.repeat(at - starts, c) + np.arange(values.size)] = values
                at += c
        return cls(PackedRequests(idx, width, counts), log.bids, log.prices, log.wins,
                   log.clicks, log.timestamps, width)

    def save(self, path) -> None:
        """One line per row: timestamp, win, click, bid (repr), price (repr,
        empty when censored) and the comma-joined indices, tab-separated."""
        ptr = self.requests.ptr.tolist()
        # format each distinct index once
        uniq, inverse = np.unique(self.requests.indices, return_inverse=True)
        tokens = list(map(list(map(str, uniq.tolist())).__getitem__, inverse.tolist()))
        columns = zip(
            map(str, self.timestamps.tolist()),
            map(str, self.wins.view(np.uint8).tolist()),
            map(str, self.clicks.view(np.uint8).tolist()),
            map(repr, self.bids.tolist()),
            ["" if math.isnan(p) else repr(p) for p in self.prices.tolist()],
            [",".join(tokens[lo:hi]) for lo, hi in zip(ptr[:-1], ptr[1:])],
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"samples 1 {self.width}\n")
            fh.writelines(map("".join, zip(map("\t".join, columns), repeat("\n"))))

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
            width = int(header[2])
            if indices.size and (indices.min() < 0 or indices.max() >= width):
                raise DataError(f"{path}: a request index lies outside [0, {width})")
            return cls(
                PackedRequests(indices, width, counts),
                np.fromiter(map(float, bids), np.float64, n),
                np.fromiter((float(p) if p else float("nan") for p in prices),
                            np.float64, n),
                np.array(wins) == "1",
                np.array(clicks) == "1",
                np.fromiter(map(int, ts), np.int64, n),
                width,
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
        probs = np.array(probs)
        bad = np.flatnonzero(~(np.isfinite(probs) & (probs >= 0.0)))
        if bad.size:
            raise DataError(f"{path}:{bad[0] + 1}: probability {probs[bad[0]]!r} is not "
                            f"a finite non-negative number")
        return cls(probs)


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
            stats = cls(int(kv["n"]), int(kv["d"]), float(kv["impression_rate"]),
                        float(kv["cpm"]), histogram)
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: missing or malformed entry {exc}") from exc
        if stats.n < 0 or stats.d < 0:
            raise DataError(f"{path}: n and d must be non-negative")
        if not 0.0 <= stats.impression_rate <= 1.0:
            raise DataError(f"{path}: impression_rate {stats.impression_rate!r} lies "
                            f"outside [0, 1]")
        if not 0.0 <= stats.cpm < math.inf:
            raise DataError(f"{path}: cpm {stats.cpm!r} is not a finite non-negative "
                            f"number")
        return stats


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
        if ids.size == 1:
            # one row of a ragged batch is a slice of idx (SimEnv.step's gather)
            lo, hi = self.ptr[ids[0]], self.ptr[ids[0] + 1]
            return self._wrap(self.idx[lo:hi], np.array([0, hi - lo]), self.width,
                              int(hi - lo))
        starts = self.ptr[ids]
        counts = self.ptr[ids + 1] - starts
        ptr = np.concatenate([[0], np.cumsum(counts)])
        # entry j of picked row i sits at starts[i] + j in self.idx
        shift = np.repeat(starts - ptr[:-1], counts)
        return self._wrap(self.idx[shift + np.arange(ptr[-1])], ptr, self.width,
                          _shared_count(counts))

    def dense(self, dtype=np.float64) -> np.ndarray:
        out = np.zeros((len(self), self.width), dtype)
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
