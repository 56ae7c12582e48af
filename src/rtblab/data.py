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

Every TSV file has one reader and one writer. parse_log and
SampleSet.load read CHUNK_CHARS of lines at a time and parse each chunk
as columns with _parse_rows, one cell parser per column type; write_tsv
writes the synthetic log, the sample files and the price histograms a
chunk at a time, one formatter per type. The cell rules: the timestamp fits in int64, the
bid is finite and >= 0, a price is empty or finite and >= 0, a flag is 0
or 1, and a won row has a price no higher than its bid. Ingest skips
and counts a line that breaks a rule or has another number of cells
than the schema, and ignores empty lines; SampleSet.load refuses, as a
DataError, a file with any such line or an empty one, a bad header, no
rows, or a request index outside the width.
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

# a sample file's columns, under the log's names, after its header line
# `samples 1 WIDTH`: the request is its active indices, comma-joined
_SAMPLE_SCHEMA = (("timestamp", "int"), ("win", "flag"), ("click", "flag"),
                  ("bid_price", "float"), ("pay_price", "price"), ("indices", "str"))

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
    except (OSError, UnicodeDecodeError) as exc:
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
    """Empty (censored: nan) or a finite number >= 0."""
    if raw == "":
        return math.nan
    v = float(raw)
    if 0.0 <= v < math.inf:
        return v
    raise ValueError(f"price {raw!r} is not a finite number >= 0")


# the cell parser of each column type that can refuse a cell (a flag
# cell is 0 or 1, and any other raises KeyError)
_CELL_PARSERS = {"int": int, "float": float, "price": _price,
                 "flag": {"0": False, "1": True}.__getitem__}
_REFUSED = (ValueError, TypeError, KeyError)
# the formatter of each column type that a writer formats from an array:
# the text its cell parser reads back as the same value
_CELL_FORMATTERS = {
    "int": lambda v: map(str, v.tolist()),
    "float": lambda v: map(repr, v.tolist()),
    "price": lambda v: ["" if math.isnan(p) else repr(p) for p in v.tolist()],
    "flag": lambda v: map(str, v.view(np.uint8).tolist()),
}


def _parse_column(cells, parse) -> tuple:
    """(values, bad): parse mapped over a column, and the rows whose cell
    it refused, which hold 0. The column is parsed cell by cell only
    after the one map has raised."""
    try:
        return list(map(parse, cells)), []
    except _REFUSED:
        pass
    values, bad = [], []
    for i, cell in enumerate(cells):
        try:
            values.append(parse(cell))
        except _REFUSED:
            values.append(0)
            bad.append(i)
    return values, bad


def _bin_dimension(v: int) -> str:
    for edge in DIM_BINS:
        if v <= edge:
            return f"<={edge}"
    return f">{DIM_BINS[-1]}"


def _first_of(names):
    """The map from a user agent to the first of names it holds, or None."""
    return lambda user_agent: next((n for n in names if n in user_agent.lower()), None)


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
        return _joined(self.parts, np.int64)


def _joined(parts: list, dtype) -> np.ndarray:
    """The chunk arrays of parts as one array; empties parts, so a column's
    chunks are freed as soon as it is joined."""
    out = np.concatenate([np.zeros(0, dtype), *parts])
    parts.clear()
    return out


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
    "os": ("user_agent", _first_of(OSES)),
    "browser": ("user_agent", _first_of(BROWSERS)),
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
        tags = _joined(self.coders[TAG_FIELD].counts, np.int64)
        num = {key: _joined(self.numeric[key], dtype) for key, _, dtype in _NUMERIC}
        return ParsedLog(cats, codes, np.concatenate([[0], np.cumsum(tags)]),
                         **num)


def _parse_rows(lines, schema) -> tuple:
    """Parse one chunk of lines as schema's columns: (col, kept), where
    col maps each column name to the kept rows' values, the typed ones
    parsed and the numeric ones (_NUMERIC) arrays, and kept marks the
    lines kept. A line is refused when it has another number of cells
    than the schema has columns, a cell its type's parser refuses, a
    timestamp beyond int64, a bid that is not finite and >= 0, or a won
    price that is missing or above the bid."""
    names = [n for n, _ in schema]
    rows = [line.split("\t") for line in lines]
    kept = np.fromiter(map(len, rows), np.int64, len(rows)) == len(names)
    if not kept.all():
        rows = list(compress(rows, kept))
    cells = list(zip(*rows)) or [()] * len(names)
    ok = np.ones(len(rows), dtype=bool)
    for i, (_, typ) in enumerate(schema):
        if typ in _CELL_PARSERS:
            cells[i], bad = _parse_column(cells[i], _CELL_PARSERS[typ])
            ok[bad] = False
    col = dict(zip(names, cells))   # a repeated name keeps its last column
    for _, name, dtype in _NUMERIC:
        try:
            col[name] = np.array(col[name], dtype)
        except OverflowError:   # a timestamp beyond int64 refuses its row
            fits = [-(1 << 63) <= t < 1 << 63 for t in col[name]]
            ok &= fits
            col[name] = np.array([t if f else 0 for t, f in zip(col[name], fits)], dtype)
    # a bid is finite and >= 0, and by second-price accounting a won
    # auction's price is known and at most the bid
    bid = col["bid_price"]
    ok &= (0.0 <= bid) & (bid < math.inf) & (~col["win"] | (col["pay_price"] <= bid))
    if not ok.all():
        col = {name: v[ok] if isinstance(v, np.ndarray) else list(compress(v, ok))
               for name, v in col.items()}
        kept[kept] = ok
    return col, kept


def _line_chunks(path, what: str):
    """Lists of the lines of a UTF-8 file, about CHUNK_CHARS of text each;
    DataError when it cannot be read or decoded."""
    carry = ""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for text in iter(lambda: fh.read(CHUNK_CHARS), ""):
                head, sep, carry = (carry + text).rpartition("\n")
                if sep:
                    yield head.split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if carry:
        yield [carry]


def write_tsv(path, n: int, schema, columns, header: str = "") -> None:
    """Write header, then n lines of schema's columns, tab-separated, about
    CHUNK_CHARS of text at a time. columns maps each column name to an
    array, formatted by the column's type; to a function of (lo, hi) that
    gives the cells of rows lo to hi - 1; or to the one cell every row
    holds."""
    def cells(value, typ, lo, hi):
        if isinstance(value, str):
            return repeat(value, hi - lo)
        return value(lo, hi) if callable(value) else _CELL_FORMATTERS[typ](value[lo:hi])

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        lo, step = 0, 256
        while lo < n:
            hi = min(n, lo + step)
            text = "\n".join(map("\t".join, zip(*(cells(columns[name], typ, lo, hi)
                                                   for name, typ in schema))))
            fh.write(text)
            fh.write("\n")
            # the rows that make about CHUNK_CHARS at this chunk's line length
            step = max(1, (hi - lo) * CHUNK_CHARS // max(len(text), 1))
            lo = hi


def parse_log(path, schema=DEFAULT_SCHEMA) -> tuple:
    """Parse a TSV log into (ParsedLog, skipped_count), in file order.

    The log is read CHUNK_CHARS at a time, and each chunk is parsed as
    columns: every line split once, each column parsed with one map, each
    field's categories derived once per distinct value. Empty lines are
    ignored; a line _parse_rows refuses is skipped and counted, and more
    than 10% skipped aborts (that usually means the schema does not match
    the file).
    """
    out = _LogColumns()
    skipped, total = 0, 0
    for lines in _line_chunks(path, "log"):
        lines = list(filter(None, lines))
        col, kept = _parse_rows(lines, schema)
        out.add(col)
        total += len(lines)
        skipped += len(lines) - int(np.count_nonzero(kept))
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
        # "\n" alone ends a line: a category may hold any other line break
        lines = list(chain.from_iterable(_line_chunks(path, "feature dictionary")))
        if not lines or not lines[0].startswith("featuredict"):
            raise DataError(f"{path} is not a feature dictionary file")
        try:
            min_count = int(lines[1].split()[1])
            fields, maps = [], {}
            i = 2
            while i < len(lines):
                tag, name, n = lines[i].split()
                if tag != "field" or not n.isdecimal() or name in maps:
                    raise DataError(f"{path}: bad dictionary line {lines[i]!r}")
                maps[name] = {c: j for j, c in enumerate(lines[i + 1 : i + 1 + int(n)])}
                if len(maps[name]) != int(n):
                    raise DataError(f"{path}: field {name} lists fewer than {n} "
                                    f"distinct categories")
                fields.append(name)
                i += 1 + int(n)
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

    def log_columns(self) -> dict:
        """The bid, price, win, click and timestamp arrays under their log
        column names."""
        return {name: getattr(self, key) for key, name, _ in _NUMERIC}

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
        ptr, idx = self.requests.ptr, self.requests.idx

        def indices(lo, hi):
            # format each distinct index of the chunk once
            uniq, inverse = np.unique(idx[ptr[lo]:ptr[hi]], return_inverse=True)
            tokens = list(map(list(map(str, uniq.tolist())).__getitem__, inverse.tolist()))
            ends = (ptr[lo:hi + 1] - ptr[lo]).tolist()
            return [",".join(tokens[a:b]) for a, b in zip(ends[:-1], ends[1:])]

        write_tsv(path, len(self), _SAMPLE_SCHEMA, {**self.log_columns(), "indices": indices},
                  f"samples 1 {self.width}\n")

    @classmethod
    def load(cls, path) -> "SampleSet":
        """Read a sample file; DataError if it refuses any line (see
        _parse_rows), a request index lies outside the width, or the
        header or the indices are malformed."""
        chunks = _line_chunks(path, "samples")
        lines = next(chunks, [""])
        header = lines[0].split()
        if len(header) != 3 or header[0] != "samples" or not header[2].isdecimal():
            raise DataError(f"{path} is not a sample file")
        width, lineno, parts = int(header[2]), 1, []
        for lines in chain([lines[1:]], chunks):
            col, kept = _parse_rows(lines, _SAMPLE_SCHEMA)
            if not kept.all():
                raise DataError(f"{path}:{lineno + 1 + int(np.argmin(kept))}: not a "
                                f"sample line (see the cell rules of rtblab.data)")
            try:
                col["indices"], col["counts"] = _parse_indices(col["indices"])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno + 1} on: {exc}") from exc
            parts.append(col)
            lineno += len(lines)
        if lineno == 1:
            raise DataError(f"{path} holds no samples")
        num = {key: _joined([p.pop(name) for p in parts], dtype)
               for key, name, dtype in _NUMERIC}
        indices, counts = (_joined([p.pop(name) for p in parts], np.int64)
                           for name in ("indices", "counts"))
        if indices.size and (indices.min() < 0 or indices.max() >= width):
            raise DataError(f"{path}: a request index lies outside [0, {width})")
        return cls(PackedRequests(indices, width, counts), width=width, **num)


def _parse_indices(cells) -> tuple:
    """(indices, counts): a chunk's comma-joined index cells as every row's
    indices back to back and each row's count; ValueError when a cell is
    not a list of integers."""
    counts = np.fromiter((c.count(",") + 1 if c else 0 for c in cells), np.int64, len(cells))
    active = ",".join(filter(None, cells))
    indices = np.fromstring(active, np.int64, sep=",") if active else np.zeros(0, np.int64)
    if indices.size != counts.sum():
        raise ValueError("unreadable request indices")
    return indices, counts


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
        write_tsv(path, self.probs.size, (("price", "int"), ("prob", "float")),
                  {"price": np.arange(self.probs.size), "prob": self.probs})

    @classmethod
    def load(cls, path) -> "PriceHistogram":
        probs = []
        try:
            for line in chain.from_iterable(_line_chunks(path, "price histogram")):
                _, q = line.split("\t")
                probs.append(float(q))
        except ValueError as exc:
            raise DataError(f"{path}:{len(probs) + 1}: malformed histogram row: "
                            f"{exc}") from exc
        probs = np.array(probs)
        if probs.size and not (np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise DataError(f"{path}: the probabilities are not numbers >= 0 that sum to 1")
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
        for line in chain.from_iterable(_line_chunks(path, "dataset stats")):
            k, _, v = line.partition("=")
            kv[k.strip()] = v.strip()
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
        # each won price lies below the histogram's top price + 1
        most = 1000.0 * stats.impression_rate * (histogram.max_price + 1)
        if stats.cpm > most * (1.0 + 1e-9):
            raise DataError(f"{path}: cpm {stats.cpm!r} exceeds {most!r}, the most the "
                            f"impression rate and the price histogram allow")
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
