import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rtblab.data import (
    CHUNK_CHARS,
    DEFAULT_SCHEMA,
    DatasetStats,
    FeatureDict,
    PackedRequests,
    NO_CATEGORY,
    PriceHistogram,
    SampleSet,
    build_feature_dictionary,
    dataset_statistics,
    kl_divergence,
    load_schema,
    parse_log,
    save_schema,
    split_day_indices,
)
from rtblab.errors import ConfigError, DataError
from rtblab.rng import stream
from rtblab.synth import (
    SynthSpec,
    generate_synthetic_market,
    write_synthetic_log,
)

MS_PER_DAY = 86_400_000


def make_record(**kw):
    """One log row's column values, typed as parse_log reads them."""
    base = dict(
        timestamp=3 * MS_PER_DAY + 7 * 3_600_000,
        user_agent="Mozilla/5.0 (Windows NT 6.1) Chrome/21.0",
        region="80",
        city="85",
        ad_exchange="2",
        domain="example.com",
        slot_id="slot1",
        slot_visibility="1",
        slot_format="fixed",
        slot_width=300,
        slot_height=250,
        user_tags=frozenset(),
        bid_price=100.0,
        pay_price=float("nan"),
        win=False,
        click=False,
    )
    base.update(kw)
    return base


def log_line(rec) -> str:
    cells = {name: str(v) for name, v in rec.items()}
    cells["user_tags"] = ",".join(sorted(rec["user_tags"]))
    cells["bid_price"] = repr(rec["bid_price"])
    cells["pay_price"] = "" if np.isnan(rec["pay_price"]) else repr(rec["pay_price"])
    cells["win"], cells["click"] = str(int(rec["win"])), str(int(rec["click"]))
    return "\t".join(cells[name] for name, _ in DEFAULT_SCHEMA)


def as_log(records):
    """The ParsedLog of the records written out as a log file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(log_line(r) + "\n" for r in records)
        log, skipped = parse_log(path)
    assert skipped == 0 and len(log) == len(records)
    return log


def categories(rec) -> dict:
    """Each field's category for one record (None: no category); the
    usertag field's is the set of its tags."""
    log = as_log([rec])
    out = {f: None if codes[0] == NO_CATEGORY else log.cats[f][codes[0]]
           for f, codes in log.codes.items() if f != "usertag"}
    out["usertag"] = {log.cats["usertag"][c] for c in log.codes["usertag"]}
    return out


def features_of(rec, fdict) -> np.ndarray:
    """The active indices of one record under fdict."""
    return SampleSet.from_records(as_log([rec]), fdict).requests.indices


def tobit_spec(logging_bid=(60.0, 60.0), sigma_b=np.log(25.0)):
    # two fields, price mean shifts with the first field's category
    return SynthSpec(
        field_dims=(3, 2),
        mixture_weights=(0.6, 0.4),
        mixture_probs=(
            ((0.7, 0.2, 0.1), (0.5, 0.5)),
            ((0.1, 0.2, 0.7), (0.2, 0.8)),
        ),
        price_mu=(((10.0, 0.0, -15.0), (5.0, 0.0)), 60.0),
        price_logsig=(((0.0, 0.0, 0.0), (0.0, 0.0)), sigma_b),
        click=(((0.5, 0.0, -0.5), (0.0, 0.0)), -2.0),
        logging_bid=logging_bid,
    )


class TestParse:
    def write_log(self, tmp_path, lines):
        path = tmp_path / "log.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def row(self, **kw):
        cells = {
            "timestamp": "259200000",
            "user_agent": "windows chrome",
            "region": "80",
            "city": "85",
            "ad_exchange": "2",
            "domain": "d.com",
            "slot_id": "s1",
            "slot_visibility": "1",
            "slot_format": "fixed",
            "slot_width": "300",
            "slot_height": "250",
            "user_tags": "10059,10024",
            "bid_price": "100.0",
            "pay_price": "23.0",
            "win": "1",
            "click": "0",
        }
        cells.update(kw)
        return "\t".join(cells[name] for name, _ in DEFAULT_SCHEMA)

    def test_well_formed(self, tmp_path):
        path = self.write_log(tmp_path, [self.row(), self.row(), self.row()])
        log, skipped = parse_log(path)
        assert len(log) == 3 and skipped == 0
        assert log.prices[0] == 23.0 and log.wins[0]

    def test_missing_column_skipped(self, tmp_path):
        bad = self.row().rsplit("\t", 1)[0]  # drop last cell
        path = self.write_log(tmp_path, [self.row(), bad])
        log, skipped = parse_log(path)
        assert len(log) == 1 and skipped == 1

    def test_censored_price_is_nan(self, tmp_path):
        path = self.write_log(tmp_path, [self.row(pay_price="", win="0")])
        log, _ = parse_log(path)
        assert np.isnan(log.prices[0])

    def test_too_many_malformed_raises(self, tmp_path):
        path = self.write_log(tmp_path, [self.row()] * 18 + ["garbage"] * 12)
        with pytest.raises(DataError):
            parse_log(path)

    def test_unreadable_raises(self, tmp_path):
        with pytest.raises(DataError):
            parse_log(tmp_path / "missing.tsv")

    @pytest.mark.parametrize("column", ["slot_width:str", "timestamp:float",
                                        "pay_price:float", "user_tags:str"])
    def test_retyped_required_column_is_a_config_error(self, tmp_path, column):
        name = column.split(":")[0]
        path = tmp_path / "schema.txt"
        path.write_text("".join(f"{column}\n" if n == name else f"{n}:{t}\n"
                                for n, t in DEFAULT_SCHEMA) + "extra:int\n")
        with pytest.raises(ConfigError, match=name):
            load_schema(path)

    def test_schema_round_trip(self, tmp_path):
        save_schema(tmp_path / "schema.txt")
        assert load_schema(tmp_path / "schema.txt") == DEFAULT_SCHEMA


class TestDeriveFields:
    def test_monday_midnight(self):
        # 1970-01-05 was a Monday; 00:30 UTC
        rec = make_record(timestamp=(4 * 86400 + 1800) * 1000)
        cats = categories(rec)
        assert cats["weekday"] == "0"
        assert cats["hour"] == "0"

    def test_user_agent_split(self):
        cats = categories(make_record(user_agent="Mozilla/5.0 (Windows NT) Chrome/21"))
        assert (cats["os"], cats["browser"]) == ("windows", "chrome")

    def test_unmatched_agent_goes_other(self):
        cats = categories(make_record(user_agent="weirdbot/1.0"))
        assert cats["os"] is None and cats["browser"] is None

    def test_slot_width_bin(self):
        assert categories(make_record(slot_width=300))["slot_width"] == "<=300"
        assert categories(make_record(slot_width=1200))["slot_width"] == ">960"


class TestFeatureDictionary:
    def test_threshold_keeps_frequent_city(self):
        records = [make_record(city="16") for _ in range(600)]
        records += [make_record(city="999")]  # appears once
        fdict = build_feature_dictionary(as_log(records), min_count=500)
        assert "16" in fdict.maps["city"]
        assert "999" not in fdict.maps["city"]

    def test_rare_category_featurizes_to_other(self):
        records = [make_record(city="16") for _ in range(600)] + [make_record(city="999")]
        fdict = build_feature_dictionary(as_log(records), min_count=500)
        req = features_of(make_record(city="999"), fdict)
        assert fdict.other_index("city") in req

    def test_deterministic_rebuild(self):
        rng = stream(3, "dict")
        records = [
            make_record(city=str(rng.integers(5)), domain=f"d{rng.integers(3)}.com")
            for _ in range(300)
        ]
        a = build_feature_dictionary(as_log(records), min_count=10)
        b = build_feature_dictionary(as_log(records), min_count=10)
        assert a.maps == b.maps and a.fields == b.fields

    def test_empty_corpus_raises(self):
        with pytest.raises(DataError):
            build_feature_dictionary(as_log([]), min_count=1)

    def test_save_load_round_trip(self, tmp_path):
        records = [make_record(city=str(i % 4)) for i in range(400)]
        fdict = build_feature_dictionary(as_log(records), min_count=50)
        fdict.save(tmp_path / "dict.txt")
        loaded = FeatureDict.load(tmp_path / "dict.txt")
        assert loaded.maps == fdict.maps
        assert loaded.width == fdict.width

    @pytest.mark.parametrize("sep", ["\u2028", "\x0c", "\x85"])
    def test_category_holding_another_line_break_round_trips(self, tmp_path, sep):
        # only "\n" ends a dictionary line
        records = [make_record(city=f"{i % 4}{sep}x") for i in range(400)]
        fdict = build_feature_dictionary(as_log(records), min_count=50)
        fdict.save(tmp_path / "dict.txt")
        assert FeatureDict.load(tmp_path / "dict.txt").maps == fdict.maps

    def test_malformed_field_line_raises_data_error(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("featuredict 1\nmin_count 1\nfield city\n")
        with pytest.raises(DataError, match="dict.txt"):
            FeatureDict.load(path)

    @pytest.mark.parametrize("fields", [
        "field city -1\na\n", "field city 2\na\n", "field city 2\na\na\n",
        "field city 1\na\nfield city 1\nb\n", "field city 1\na\nx city 1\nb\n",
    ], ids=["negative count", "count past the end", "repeated category",
            "repeated field", "not a field line"])
    def test_bad_field_count_or_name_raises_data_error(self, tmp_path, fields):
        # a negative count once looped for ever, and a repeated category
        # or field once loaded into a dictionary narrower than its file
        path = tmp_path / "dict.txt"
        path.write_text("featuredict 1\nmin_count 1\n" + fields)
        with pytest.raises(DataError, match="dict.txt"):
            FeatureDict.load(path)


class TestFeaturize:
    def test_one_hot_per_field(self):
        records = [make_record() for _ in range(10)]
        fdict = build_feature_dictionary(as_log(records), min_count=1)
        req = features_of(records[0], fdict)
        assert len(req) == len(fdict.fields)
        # exactly one active index inside every field block
        for f in fdict.fields:
            lo = fdict.offset(f)
            hi = lo + fdict.field_width(f)
            assert np.sum((req >= lo) & (req < hi)) == 1

    def test_unseen_goes_other(self):
        records = [make_record() for _ in range(10)]
        fdict = build_feature_dictionary(as_log(records), min_count=1)
        req = features_of(make_record(city="unseen-city"), fdict)
        assert fdict.other_index("city") in req

    def test_usertag_multihot(self):
        records = [
            make_record(user_tags=frozenset({"a", "b"})) for _ in range(10)
        ]
        fdict = build_feature_dictionary(as_log(records), min_count=1)
        req = features_of(records[0], fdict)
        lo = fdict.offset("usertag")
        hi = lo + fdict.field_width("usertag")
        assert np.sum((req >= lo) & (req < hi)) == 2

    def test_invariant_sweep_over_synthetic_corpus(self):
        rng = stream(4, "sweep")
        records = [
            make_record(
                city=str(rng.integers(6)),
                domain=f"d{rng.integers(4)}.com",
                user_agent=["windows chrome", "ios safari", "bot"][rng.integers(3)],
                timestamp=int(rng.integers(0, 10 * MS_PER_DAY)),
            )
            for _ in range(1000)
        ]
        log = as_log(records)
        fdict = build_feature_dictionary(log, min_count=5)
        dense = SampleSet.from_records(log, fdict).requests.dense()
        assert np.all(dense.sum(axis=1) == len(fdict.fields))  # no usertags here
        assert set(np.unique(dense)) <= {0.0, 1.0}


class TestSplits:
    def ts_for_days(self, n_days, per_day=3):
        return np.array(
            [d * MS_PER_DAY + i for d in range(n_days) for i in range(per_day)]
        )

    def test_ten_days(self):
        ts = self.ts_for_days(10)
        tr, va, te = split_day_indices(ts)
        days = lambda idx: sorted(set(ts[idx] // MS_PER_DAY))
        assert days(tr) == [0, 1, 2, 3, 4, 5]
        assert days(va) == [6]
        assert days(te) == [7, 8, 9]

    def test_four_days(self):
        ts = self.ts_for_days(4)
        tr, va, te = split_day_indices(ts)
        assert (len(set(ts[tr] // MS_PER_DAY)), len(set(ts[va] // MS_PER_DAY)),
                len(set(ts[te] // MS_PER_DAY))) == (2, 1, 1)

    def test_exact_partition(self):
        ts = self.ts_for_days(7, per_day=11)
        tr, va, te = split_day_indices(ts)
        merged = np.sort(np.concatenate([tr, va, te]))
        assert np.array_equal(merged, np.arange(ts.size))

    def test_too_few_days_raises(self):
        with pytest.raises(DataError):
            split_day_indices(self.ts_for_days(2))


class TestStats:
    def as_samples(self, records):
        log = as_log(records)
        return SampleSet.from_records(log, build_feature_dictionary(log, min_count=1))

    def test_two_record_arithmetic(self):
        records = [
            make_record(win=True, pay_price=20.0),
            make_record(win=False),
        ]
        stats = dataset_statistics(self.as_samples(records))
        assert stats.impression_rate == 0.5
        assert stats.cpm == 1000.0 * 20.0 / 2

    def test_zero_wins_flagged(self):
        stats = dataset_statistics(self.as_samples([make_record(win=False)] * 3))
        assert stats.impression_rate == 0.0
        assert stats.cpm == 0.0
        assert stats.histogram.empty

    def test_stats_save_load(self, tmp_path):
        stats = dataset_statistics(
            self.as_samples([make_record(win=True, pay_price=20.0)])
        )
        stats.save(tmp_path / "stats.txt")
        loaded = DatasetStats.load(tmp_path / "stats.txt", stats.histogram)
        assert loaded.cpm == stats.cpm and loaded.n == stats.n

    def test_stats_without_d_raises_data_error(self, tmp_path):
        path = tmp_path / "stats.txt"
        path.write_text("n = 3\nimpression_rate = 0.5\ncpm = 10.0\n")
        with pytest.raises(DataError, match="stats.txt"):
            DatasetStats.load(path, PriceHistogram(np.ones(1)))

    def test_histogram_row_without_tab_raises_data_error(self, tmp_path):
        path = tmp_path / "hist.tsv"
        path.write_text("0\t0.5\n1 0.5\n")
        with pytest.raises(DataError, match="hist.tsv"):
            PriceHistogram.load(path)


class TestKl:
    def test_identical_is_zero(self):
        p = PriceHistogram(np.array([0.25, 0.5, 0.25]))
        assert abs(kl_divergence(p, p)) < 1e-9

    def test_closed_form_log2(self):
        p = PriceHistogram(np.array([1.0, 0.0]))
        q = PriceHistogram(np.array([0.5, 0.5]))
        assert abs(kl_divergence(p, q) - np.log(2)) < 1e-4

    def test_nonnegative(self):
        rng = stream(6, "kl")
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert kl_divergence(PriceHistogram(p), PriceHistogram(q)) >= 0.0

    def test_histogram_floors_prices(self):
        h = PriceHistogram.from_prices([2.7, 2.1, 4.9])
        assert h.probs.size == 5
        assert h.probs[2] == pytest.approx(2 / 3)


class TestSyntheticMarket:
    def test_deterministic_price_all_wins(self):
        spec = tobit_spec(logging_bid=(20.0, 20.0), sigma_b=-20.0)
        spec = SynthSpec(
            field_dims=spec.field_dims,
            mixture_weights=spec.mixture_weights,
            mixture_probs=spec.mixture_probs,
            price_mu=(((0.0, 0.0, 0.0), (0.0, 0.0)), 10.0),
            price_logsig=(((0.0, 0.0, 0.0), (0.0, 0.0)), -20.0),
            logging_bid=(20.0, 20.0),
        )
        market = generate_synthetic_market(spec, 200, stream(7, "synth"))
        assert market.samples.wins.all()
        assert np.allclose(market.samples.prices, 10.0, atol=1e-6)

    def test_zero_bid_all_censored(self):
        market = generate_synthetic_market(
            tobit_spec(logging_bid=(0.0, 0.0)), 200, stream(8, "synth")
        )
        assert not market.samples.wins.any()
        assert np.isnan(market.samples.prices).all()

    def test_win_rate_matches_tobit_cdf(self):
        # Monte-Carlo oracle: empirical win rate vs mean Phi((bid - mu)/sigma)
        spec = tobit_spec(logging_bid=(60.0, 60.0))
        market = generate_synthetic_market(spec, 10_000, stream(9, "synth"))
        mu = market.price.mu(market.samples.requests)
        sig = market.price.sigma(market.samples.requests)
        expected = norm.cdf((market.samples.bids - mu) / sig).mean()
        assert abs(market.samples.wins.mean() - expected) < 0.02

    def test_log_round_trip(self, tmp_path):
        market = generate_synthetic_market(tobit_spec(), 500, stream(10, "synth"))
        write_synthetic_log(market, tmp_path / "log.tsv", tmp_path / "schema.txt")
        log, skipped = parse_log(tmp_path / "log.tsv", load_schema(tmp_path / "schema.txt"))
        assert skipped == 0 and len(log) == 500
        s = market.samples
        for i in (0, 123, 499):
            assert log.wins[i] == bool(s.wins[i])
            assert log.clicks[i] == bool(s.clicks[i])
            assert log.bids[i] == pytest.approx(float(s.bids[i]))
            if s.wins[i]:
                assert log.prices[i] == pytest.approx(float(s.prices[i]))
            else:
                assert np.isnan(log.prices[i])

    def test_request_sums_are_bitwise_the_per_row_sums(self):
        # synth prices its requests with PackedRequests.dot
        rng = stream(12, "synth-dot")
        for k in range(5, 21):
            w = rng.standard_normal(8 * k) * 100.0
            mat = rng.integers(0, 8 * k, size=(300, k))
            per_row = np.array([w[row[0]] + w[row[1:]].sum() for row in mat])
            assert np.array_equal(PackedRequests(mat, 8 * k).dot(w), per_row), k

    def test_sample_set_round_trip(self, tmp_path):
        market = generate_synthetic_market(tobit_spec(), 100, stream(11, "synth"))
        market.samples.save(tmp_path / "s.tsv")
        loaded = SampleSet.load(tmp_path / "s.tsv")
        assert len(loaded) == 100
        assert np.array_equal(loaded.wins, market.samples.wins)
        assert np.allclose(loaded.bids, market.samples.bids)
        got = loaded.prices[loaded.wins]
        want = market.samples.prices[market.samples.wins]
        assert np.allclose(got, want)
        assert loaded.requests == market.samples.requests


def requests_of(rows, width):
    return PackedRequests.from_rows([sorted(r) for r in rows], width)


@st.composite
def ragged_batches(draw):
    """Random request batches over a small width; rows may be empty."""
    width = draw(st.integers(1, 10))
    rows = draw(st.lists(st.sets(st.integers(0, width - 1)), min_size=1, max_size=25))
    seed = draw(st.integers(0, 2**32 - 1))
    return [sorted(r) for r in rows], width, np.random.default_rng(seed)


@st.composite
def uniform_batches(draw):
    """Random (n, k) index matrices over a small width, k = 0 included."""
    width = draw(st.integers(1, 10))
    shape = (draw(st.integers(1, 25)), draw(st.integers(0, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, width, size=shape).tolist(), width, rng


class TestPackedRequests:
    def test_empty_middle_row_dots_to_zero(self):
        packed = requests_of([{0}, set(), {0}], 1)
        assert packed.dot(np.array([3.0])).tolist() == [3.0, 0.0, 3.0]

    def test_empty_last_row_dots_to_zero(self):
        packed = requests_of([{0}, {0, 1}, set()], 2)
        assert packed.dot(np.array([3.0, 1.0])).tolist() == [3.0, 4.0, 0.0]

    def test_rows_keeps_empty_rows(self):
        packed = requests_of([{0, 1}, set(), {1}], 2)
        sub = packed.rows(np.array([1, 2, 1]))
        assert sub.dot(np.array([3.0, 1.0])).tolist() == [0.0, 1.0, 0.0]
        only_empty = packed.rows(np.array([1, 1]))
        assert only_empty.dot(np.array([3.0, 1.0])).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("as_ids", [lambda i: [i], lambda i: np.array([i]),
                                        lambda i: np.array([i], dtype=np.int32)])
    def test_one_row_of_a_ragged_batch_is_the_general_gather(self, as_ids):
        rows = [[0, 2], [1], [], [0, 1, 3], [3], []]
        packed = requests_of(rows, 4)
        w = np.array([0.5, -1.25, 3.0, 7.0])
        for i in (0, 2, 3, len(rows) - 1):         # first, empty, longest, last (empty)
            one = packed.rows(as_ids(i))
            general = packed.rows([i, 0])          # two ids take the general path
            assert one == PackedRequests.from_rows([rows[i]], 4)
            assert one.k == len(rows[i])
            assert np.array_equal(one.dense(), general.dense()[:1])
            assert np.array_equal(one.dot(w), general.dot(w)[:1])

    @settings(max_examples=200, deadline=None)
    @given(ragged_batches())
    def test_dot_and_scatter_match_dense(self, batch):
        rows, width, rng = batch
        packed = PackedRequests.from_rows(rows, width)
        # the dense reference, built from the raw index lists
        dense = np.zeros((len(rows), width))
        for i, row in enumerate(rows):
            for j in row:
                dense[i, j] = 1.0
        w = rng.standard_normal(dense.shape[1])
        v = rng.standard_normal(dense.shape[0])
        assert np.allclose(packed.dot(w), dense @ w, rtol=1e-12, atol=1e-12)
        assert np.allclose(packed.scatter(v), dense.T @ v, rtol=1e-12, atol=1e-12)
        ids = rng.integers(len(rows), size=len(rows))
        sub = packed.rows(ids)
        assert np.array_equal(sub.dense(), dense[ids])
        assert np.allclose(sub.dot(w), dense[ids] @ w, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(ragged_batches(), uniform_batches()))
    def test_any_subset_dots_as_the_same_rows_packed_fresh(self, batch):
        rows, width, rng = batch
        packed = PackedRequests.from_rows(rows, width)
        w = rng.standard_normal(width) * 100.0
        # the rows that share one row's count, shuffled, and a random draw
        count = len(rows[rng.integers(len(rows))])
        same = rng.permutation([i for i, r in enumerate(rows) if len(r) == count])
        for ids in (same, rng.integers(len(rows), size=len(rows))):
            fresh = PackedRequests.from_rows([rows[i] for i in ids], width)
            sub = packed.rows(ids)
            assert sub == fresh
            assert np.array_equal(sub.dot(w), fresh.dot(w))

    @settings(max_examples=200, deadline=None)
    @given(uniform_batches())
    def test_matrix_batch_is_the_same_rows_built_from_rows(self, batch):
        rows, width, rng = batch
        mat = PackedRequests(np.array(rows, dtype=np.int64), width)
        fresh = PackedRequests.from_rows(rows, width)
        w = rng.standard_normal(width) * 100.0
        assert mat == fresh
        assert np.array_equal(mat.dot(w), fresh.dot(w))
        # the same rows picked back out of a batch with one longer row
        ragged = PackedRequests.from_rows(rows + [rows[0] + [0]], width)
        picked = ragged.rows(np.arange(len(rows)))
        assert picked == mat
        assert np.array_equal(picked.dot(w), mat.dot(w))

    @settings(max_examples=200, deadline=None)
    @given(ragged_batches())
    def test_scatter_is_bitwise_an_add_at_over_the_rows(self, batch):
        # ragged batches, some with empty rows
        rows, width, rng = batch
        v = rng.standard_normal(len(rows))
        want = np.zeros(width)
        np.add.at(want, np.array([j for r in rows for j in r], dtype=np.int64),
                  np.repeat(v, [len(r) for r in rows]))
        assert np.array_equal(PackedRequests.from_rows(rows, width).scatter(v), want)

    @pytest.mark.parametrize("k", [1, 3, 14])
    def test_scatter_on_uniform_rows_is_bitwise_an_add_at(self, k):
        rng = stream(151, "scatter", k)
        mat = rng.integers(0, 40, size=(300, k))
        v = rng.standard_normal(300)
        want = np.zeros(40)
        np.add.at(want, mat, v[:, None])
        packed = PackedRequests(mat, 40)
        assert packed == PackedRequests.from_rows(mat, 40)
        assert np.array_equal(packed.scatter(v), want)


def reference_load(path) -> SampleSet:
    """The sample-file loader that held every line as a list of cells
    before it converted the columns, kept to check the chunked one."""
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
        return SampleSet(
            PackedRequests(indices, width, counts),
            np.fromiter(map(float, bids), np.float64, n),
            np.fromiter((float(p) if p else float("nan") for p in prices), np.float64, n),
            np.array(wins) == "1",
            np.array(clicks) == "1",
            np.fromiter(map(int, ts), np.int64, n),
            width,
        )
    except ValueError as exc:
        raise DataError(f"{path}: malformed sample file: {exc}") from exc


def random_sample_set(rng, n, width=6) -> SampleSet:
    """n rows of up to width indices each (empty rows too), bids with
    repr-long digits, censored prices on lost rows and prices at most the
    bid on won ones."""
    rows = [sorted(rng.choice(width, size=rng.integers(0, width + 1), replace=False))
            for _ in range(n)]
    bids = rng.uniform(0.0, 300.0, n)
    wins = rng.random(n) < 0.4
    return SampleSet(PackedRequests.from_rows(rows, width), bids,
                     np.where(wins, bids * rng.random(n), np.nan), wins,
                     wins & (rng.random(n) < 0.3),
                     rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64), width)


def same_sets(a: SampleSet, b: SampleSet) -> bool:
    """Bitwise-equal columns and requests."""
    return a.width == b.width and a.requests == b.requests and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(a.log_columns().values(), b.log_columns().values()))


class TestSampleFile:
    def ragged_set(self):
        rows = [[0, 2], [], [1], [0, 1, 3], [3]]
        n = len(rows)
        return SampleSet(
            PackedRequests.from_rows(rows, 4),
            np.array([10.0, 20.5, 3.25, 7.0, 1e-3]),
            np.array([4.0, np.nan, 3.0, np.nan, 0.0]),
            np.array([True, False, True, False, True]),
            np.array([False, False, True, False, False]),
            np.arange(n, dtype=np.int64) * MS_PER_DAY,
            4,
        )

    def test_ragged_save_load_save_is_byte_identical(self, tmp_path):
        samples = self.ragged_set()
        samples.save(tmp_path / "a.samples")
        loaded = SampleSet.load(tmp_path / "a.samples")
        loaded.save(tmp_path / "b.samples")
        assert (tmp_path / "a.samples").read_bytes() == (tmp_path / "b.samples").read_bytes()
        assert loaded.requests == samples.requests
        w = np.array([1.5, -2.0, 4.0, 0.25])
        assert np.array_equal(loaded.requests.dot(w), samples.requests.dot(w))
        assert loaded.requests.dot(w)[1] == 0.0  # the empty row

    def test_unreadable_indices_raise(self, tmp_path):
        path = tmp_path / "bad.samples"
        path.write_text("samples 1 4\n0\t1\t0\t10.0\t4.0\t0,x\n")
        with pytest.raises(DataError):
            SampleSet.load(path)

    @pytest.mark.parametrize("n", [1, 7, 4000])
    def test_load_is_bitwise_the_reference_loader(self, tmp_path, n):
        # 4000 ragged rows take several CHUNK_CHARS chunks
        path = tmp_path / "s.samples"
        random_sample_set(stream(41, "samples", n), n).save(path)
        assert n < 4000 or path.stat().st_size > 3 * CHUNK_CHARS
        assert same_sets(SampleSet.load(path), reference_load(path))

    @pytest.mark.parametrize("text", [
        "", "samples 1 4\n", "sample 1 4\n0\t1\t0\t10.0\t4.0\t0\n",
        "samples 1\n0\t1\t0\t10.0\t4.0\t0\n", "samples 1 x\n0\t1\t0\t10.0\t4.0\t0\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\t0\n\n1\t0\t0\t10.0\t\t1\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\t0\n\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\t0\t\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\t0,4\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\t-1\n",
        "samples 1 4\n0\t1\t0\t10.0\t4.0\t0,,1\n",
    ], ids=["empty file", "no rows", "bad header word", "short header", "bad width",
            "blank line", "blank last line", "five cells", "seven cells",
            "index at the width", "negative index", "empty index"])
    def test_files_the_reference_refuses_raise_data_error(self, tmp_path, text):
        path = tmp_path / "s.samples"
        path.write_text(text)
        for load in (reference_load, SampleSet.load):
            with pytest.raises(DataError):
                load(path)

    def test_one_byte_edit_loads_as_the_reference_or_raises(self, tmp_path):
        # what the reference refuses, load refuses too; what load reads,
        # the reference reads to the same arrays
        path = tmp_path / "s.samples"
        random_sample_set(stream(43, "samples"), 30).save(path)
        raw = path.read_bytes()

        @settings(max_examples=300, derandomize=True, database=None, deadline=None)
        @given(st.sampled_from(["replace", "delete", "insert"]),
               st.integers(0, len(raw) - 1), st.integers(0, 255))
        def load_edited(edit, pos, byte):
            cell = b"" if edit == "delete" else bytes([byte])
            path.write_bytes(raw[:pos] + cell + raw[pos + (edit != "insert"):])
            try:
                want = reference_load(path)
            except (DataError, ValueError, OverflowError):
                want = None
            try:
                got = SampleSet.load(path)
            except DataError:
                return
            assert want is not None and same_sets(got, want)

        load_edited()
