"""Synthetic ground-truth markets.

Draws bid requests from a categorical mixture (components induce
cross-field correlation), market prices from a PriceModel (Gaussian,
mean and log-std linear in the one-hot vector, floored at 0 by
PriceModel.draw) and clicks from a ClickModel (logistic). A logging bid
policy realizes the censoring: the market price is observed iff the
logged bid beat it. The generating models are returned
(SynthMarket.price, .click) so recovery tests have an exact oracle.
"""

from dataclasses import dataclass

import numpy as np

from .config import load_config_file
from .data import (
    DEFAULT_SCHEMA,
    FeatureDict,
    MS_PER_DAY,
    PackedRequests,
    SampleSet,
    save_schema,
)
from .errors import ConfigError
from .market_action import ClickModel, PriceModel


@dataclass
class SynthSpec:
    field_dims: tuple                 # categories per synthetic field
    mixture_weights: tuple            # component weights, sum 1
    mixture_probs: tuple              # [component][field] -> category probs
    price_mu: tuple                   # ([field] -> per-category coef, intercept)
    price_logsig: tuple               # same layout
    click: tuple = ((), -4.0)         # same layout; default: ~2% flat ctr
    logging_bid: tuple = (0.0, 0.0)   # (lo, hi) uniform; lo == hi is constant
    days: int = 5

    def __post_init__(self):
        """Errors name the spec-file key: comp{k}_f{f} is component k's
        probabilities for field f, {block}_f{f} a coefficient list."""
        weights = np.asarray(self.mixture_weights, dtype=np.float64)
        if not (np.all(np.isfinite(weights)) and np.all(weights >= 0)):
            raise ConfigError("mixture_weights must be finite and non-negative")
        if abs(sum(self.mixture_weights) - 1.0) > 1e-9:
            raise ConfigError("mixture_weights must sum to 1")
        for k, comp in enumerate(self.mixture_probs):
            if len(comp) != len(self.field_dims):
                raise ConfigError("every mixture component needs probs per field")
            for f, (p, dim) in enumerate(zip(comp, self.field_dims)):
                p = np.asarray(p, dtype=np.float64)
                if p.size != dim:
                    raise ConfigError(f"comp{k}_f{f} has {p.size} probabilities "
                                      f"for {dim} categories")
                if not (np.all(np.isfinite(p)) and np.all(p >= 0) and p.sum() > 0):
                    raise ConfigError(f"comp{k}_f{f} must be finite, non-negative "
                                      "and not all zero")
        for block, (coefs, _) in (("price_mu", self.price_mu),
                                  ("price_logsig", self.price_logsig),
                                  ("click", self.click)):
            if coefs and len(coefs) != len(self.field_dims):
                raise ConfigError(f"{block} needs one coefficient list per field")
            for f, (c, dim) in enumerate(zip(coefs, self.field_dims)):
                if len(c) != dim:
                    raise ConfigError(f"{block}_f{f} has {len(c)} values "
                                      f"for {dim} categories")


def _flatten(coefs_per_field, fdict: FeatureDict) -> np.ndarray:
    """Per-field per-category coefficients -> a width-D vector (OTHER slots 0)."""
    v = np.zeros(fdict.width)
    if not coefs_per_field:
        return v
    for f_i, field in enumerate(fdict.fields):
        coefs = np.asarray(coefs_per_field[f_i], dtype=np.float64)
        off = fdict.offset(field)
        v[off : off + coefs.size] = coefs
    return v


@dataclass
class SynthMarket:
    """A synthetic log with its generating models, aligned with fdict."""

    fdict: FeatureDict
    samples: SampleSet
    price: PriceModel
    click: ClickModel


def synth_feature_dict(field_dims) -> FeatureDict:
    """Fields f0..fk with categories c0..c{d-1} (plus the usual OTHER slot)."""
    fields = tuple(f"f{i}" for i in range(len(field_dims)))
    maps = {f: {f"c{j}": j for j in range(d)} for f, d in zip(fields, field_dims)}
    return FeatureDict(fields, maps, min_count=1)


def sample_requests(spec: SynthSpec, fdict: FeatureDict, n: int, rng) -> PackedRequests:
    """n requests, one index per field in field order."""
    weights = np.asarray(spec.mixture_weights)
    comps = rng.choice(len(weights), size=n, p=weights)
    field_cats = np.empty((n, len(spec.field_dims)), dtype=np.int64)
    for k in range(len(weights)):
        rows = np.flatnonzero(comps == k)
        if rows.size == 0:
            continue
        for f_i, probs in enumerate(spec.mixture_probs[k]):
            probs = np.asarray(probs, dtype=np.float64)
            field_cats[rows, f_i] = rng.choice(probs.size, size=rows.size, p=probs)
    offsets = np.array([fdict.offset(f) for f in fdict.fields])
    return PackedRequests(offsets + field_cats, fdict.width)


def generate_synthetic_market(spec: SynthSpec, n: int, rng) -> SynthMarket:
    fdict = synth_feature_dict(spec.field_dims)
    price = PriceModel(_flatten(spec.price_mu[0], fdict), float(spec.price_mu[1]),
                       _flatten(spec.price_logsig[0], fdict), float(spec.price_logsig[1]))
    click = ClickModel(_flatten(spec.click[0], fdict), float(spec.click[1]))
    requests = sample_requests(spec, fdict, n, rng)

    lo, hi = spec.logging_bid
    bids = np.full(n, float(lo)) if lo == hi else rng.uniform(lo, hi, size=n)
    w = price.draw(requests, rng)
    wins = bids > w
    prices = np.where(wins, w, np.nan)

    clicked = rng.random(n) < click.prob(requests)
    clicks = wins & clicked  # click observable only on impression

    # timestamps spread uniformly over synthetic days, in order
    per_day = (n + spec.days - 1) // spec.days
    ts = np.array(
        [d * MS_PER_DAY + i * (MS_PER_DAY // max(per_day, 1))
         for d in range(spec.days) for i in range(per_day)][:n],
        dtype=np.int64,
    )

    samples = SampleSet(requests, bids, prices, wins, clicks, ts, fdict.width)
    return SynthMarket(fdict, samples, price, click)


# synthetic fields are written into these raw-log columns so the standard
# ingest pipeline (parse -> derive -> dictionary -> featurize) runs end to end
_LOG_COLUMNS = ("region", "city", "ad_exchange", "domain", "slot_id")


def write_synthetic_log(market: SynthMarket, log_path, schema_path) -> None:
    fdict = market.fdict
    if len(fdict.fields) > len(_LOG_COLUMNS):
        raise ConfigError(
            f"can export at most {len(_LOG_COLUMNS)} synthetic fields to a raw log"
        )
    s = market.samples
    col_for_field = dict(zip(fdict.fields, _LOG_COLUMNS))
    # synthetic requests hold one index per field, in field order
    offsets = np.array([fdict.offset(f) for f in fdict.fields])
    local = (s.requests.indices.reshape(len(s), -1) - offsets).tolist()
    with open(log_path, "w", encoding="utf-8") as fh:
        for i in range(len(s)):
            cats = {c: "na" for c in _LOG_COLUMNS}
            for f, c in zip(fdict.fields, local[i]):
                cats[col_for_field[f]] = f"c{c}"
            price = s.prices[i]
            pay = "" if np.isnan(price) else repr(max(float(price), 0.0))
            row = {
                "timestamp": str(int(s.timestamps[i])),
                "user_agent": "synthetic",
                "region": cats["region"],
                "city": cats["city"],
                "ad_exchange": cats["ad_exchange"],
                "domain": cats["domain"],
                "slot_id": cats["slot_id"],
                "slot_visibility": "1",
                "slot_format": "fixed",
                "slot_width": "300",
                "slot_height": "250",
                "user_tags": "",
                "bid_price": repr(float(s.bids[i])),
                "pay_price": pay,
                "win": "1" if s.wins[i] else "0",
                "click": "1" if s.clicks[i] else "0",
            }
            fh.write("\t".join(row[name] for name, _ in DEFAULT_SCHEMA) + "\n")
    save_schema(schema_path)


def load_synth_spec(path) -> tuple:
    """Parse a flat key=value synth spec file; returns (spec, n, seed).
    An unreadable file, a line without "=", a missing key or a malformed
    number is a ConfigError."""
    kv = load_config_file(path)

    def numbers(key, default=None, kind=float):
        if key not in kv:
            if default is None:
                raise ConfigError(f"synth spec {path} missing {key}")
            return default
        try:
            return tuple(kind(x) for x in kv[key].split(","))
        except ValueError as exc:
            raise ConfigError(f"synth spec {path}, {key}: {exc}") from exc

    field_dims = numbers("fields", kind=int)
    weights = numbers("mixture_weights", (1.0,))
    probs = tuple(
        tuple(np.asarray(numbers(f"comp{k}_f{f}")) for f in range(len(field_dims)))
        for k in range(len(weights))
    )

    def coef_block(prefix, default_intercept):
        coefs = tuple(
            numbers(f"{prefix}_f{f}", (0.0,) * field_dims[f])
            for f in range(len(field_dims))
        )
        return (coefs, numbers(f"{prefix}_intercept", (default_intercept,))[0])

    bid = numbers("logging_bid")
    spec = SynthSpec(
        field_dims=field_dims,
        mixture_weights=weights,
        mixture_probs=probs,
        price_mu=coef_block("price_mu", 0.0),
        price_logsig=coef_block("price_logsig", 0.0),
        click=coef_block("click", -4.0),
        logging_bid=(bid[0], bid[-1]),
        days=numbers("days", (5,), int)[0],
    )
    # SynthSpec checked the raw vectors; a raw vector need not sum to 1
    spec.mixture_probs = tuple(tuple(p / p.sum() for p in comp) for comp in probs)
    return spec, numbers("n", (10000,), int)[0], numbers("seed", (0,), int)[0]
