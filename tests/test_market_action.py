import warnings

import numpy as np
import pytest
from scipy.stats import norm

from rtblab.data import PackedRequests, SampleSet
from rtblab.errors import DataError
from rtblab.market_action import (
    ClickModel,
    FitConfig,
    PriceModel,
    average_ctr,
    censored_nll,
    click_nll,
    train_click_model,
    train_price_model,
)
from rtblab.rng import stream
from rtblab.synth import SynthSpec, generate_synthetic_market


def onehot_requests(cats, width):
    return PackedRequests(np.asarray(cats, dtype=np.int64)[:, None], width)


def flat_model(width, mu_b=0.0, logsig_b=0.0):
    return PriceModel(np.zeros(width), mu_b, np.zeros(width), logsig_b)


def finite_diff(f, vec, h=1e-6):
    g = np.zeros_like(vec)
    for i in range(vec.size):
        orig = vec[i]
        vec[i] = orig + h
        fp = f()
        vec[i] = orig - h
        fm = f()
        vec[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g


class TestCensoredNll:
    def test_win_at_mean_unit_sigma(self):
        packed = onehot_requests([0], 2)
        model = flat_model(2, mu_b=50.0, logsig_b=0.0)
        loss, _ = censored_nll(model, packed, [60.0], [50.0], [True], want_grads=False)
        assert loss == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_deep_loss_tail_is_free(self):
        packed = onehot_requests([0], 2)
        model = flat_model(2, mu_b=50.0, logsig_b=0.0)  # sigma = 1
        loss, _ = censored_nll(model, packed, [40.0], [np.nan], [False], want_grads=False)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_equals_gaussian_nll_without_censoring(self):
        rng = stream(20, "nll")
        packed = onehot_requests(rng.integers(0, 3, size=50), 3)
        model = PriceModel(rng.normal(size=3), 40.0, rng.normal(scale=0.2, size=3), 1.5)
        prices = rng.uniform(10, 90, size=50)
        loss, _ = censored_nll(model, packed, prices + 10, prices,
                               np.ones(50, bool), want_grads=False)
        mu = model.mu(packed)
        sig = model.sigma(packed)
        direct = -norm.logpdf(prices, mu, sig).mean()
        assert loss == pytest.approx(direct, abs=1e-12)

    def test_row_order_invariance(self):
        rng = stream(21, "nll")
        cats = rng.integers(0, 3, size=30)
        bids = rng.uniform(20, 80, 30)
        wins = rng.random(30) < 0.6
        prices = np.where(wins, bids - rng.uniform(0, 10, 30), np.nan)
        model = PriceModel(rng.normal(size=3), 45.0, np.zeros(3), 2.0)
        perm = rng.permutation(30)
        a, _ = censored_nll(model, onehot_requests(cats, 3),
                            bids, prices, wins, want_grads=False)
        b, _ = censored_nll(model, onehot_requests(cats[perm], 3),
                            bids[perm], prices[perm], wins[perm], want_grads=False)
        assert a == pytest.approx(b, abs=1e-12)

    def test_finite_at_30_sigma(self):
        packed = onehot_requests([0, 0], 2)
        model = flat_model(2, mu_b=0.0, logsig_b=0.0)
        loss, grads = censored_nll(model, packed, [30.0, -30.0], [np.nan, np.nan],
                                   [False, False])
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(v)) for v in
                   [grads["mu_w"], grads["logsig_w"], [grads["mu_b"], grads["logsig_b"]]])

    def test_gradients_match_finite_differences(self):
        rng = stream(22, "nll-fd")
        cats = rng.integers(0, 3, size=40)
        packed = onehot_requests(cats, 3)
        bids = rng.uniform(30, 70, 40)
        wins = rng.random(40) < 0.5
        prices = np.where(wins, bids - rng.uniform(0, 5, 40), np.nan)
        model = PriceModel(rng.normal(size=3), 50.0, rng.normal(scale=0.1, size=3), 2.5)

        def loss():
            v, _ = censored_nll(model, packed, bids, prices, wins,
                                l2=1e-3, want_grads=False)
            return v

        _, grads = censored_nll(model, packed, bids, prices, wins, l2=1e-3)
        assert np.allclose(grads["mu_w"], finite_diff(loss, model.mu_w), atol=1e-7)
        assert np.allclose(grads["logsig_w"], finite_diff(loss, model.logsig_w), atol=1e-7)


def reference_censored_nll(model, packed, bids, prices, wins, l2=0.0):
    """censored_nll as it was written over scipy.stats.norm: the oracle the
    log_ndtr body must match bit for bit."""
    wins = np.asarray(wins, dtype=bool)
    n = len(packed)
    mu = model.mu(packed)
    logsig = packed.dot(model.logsig_w) + model.logsig_b
    sig = np.exp(logsig)
    r_mu, r_ls, nll = np.zeros(n), np.zeros(n), np.zeros(n)
    if wins.any():
        z = (np.asarray(prices)[wins] - mu[wins]) / sig[wins]
        nll[wins] = logsig[wins] + 0.5 * z * z + 0.5 * np.log(2 * np.pi)
        r_mu[wins] = -z / sig[wins]
        r_ls[wins] = 1.0 - z * z
    losses = ~wins
    if losses.any():
        t = (np.asarray(bids)[losses] - mu[losses]) / sig[losses]
        nll[losses] = -norm.logsf(t)
        hazard = np.exp(norm.logpdf(t) - norm.logsf(t))
        r_mu[losses] = -hazard / sig[losses]
        r_ls[losses] = -hazard * t
    loss = float(nll.mean()) + 0.5 * l2 * float(
        np.dot(model.mu_w, model.mu_w) + np.dot(model.logsig_w, model.logsig_w))
    return loss, {"mu_w": packed.scatter(r_mu / n) + l2 * model.mu_w,
                  "mu_b": float(r_mu.mean()),
                  "logsig_w": packed.scatter(r_ls / n) + l2 * model.logsig_w,
                  "logsig_b": float(r_ls.mean())}


def oracle_rows(n, won_share, seed):
    """n one-hot rows over 5 categories whose lost rows sit at t from -40
    to 40 standard deviations of the bid; a won row's price lies within
    3 sigma of the mean."""
    rng = stream(seed, "nll-oracle")
    packed = onehot_requests(rng.integers(0, 5, size=n), 5)
    model = PriceModel(rng.normal(scale=10.0, size=5), 60.0,
                       rng.normal(scale=0.3, size=5), 2.0)
    t = np.linspace(-40.0, 40.0, n) if n > 1 else np.array([7.5])
    bids = model.mu(packed) + model.sigma(packed) * t
    wins = rng.random(n) < won_share
    prices = np.where(wins, model.mu(packed) + model.sigma(packed)
                      * rng.uniform(-3, 3, n), np.nan)
    return model, packed, bids, prices, wins


class TestCensoredNllOracle:
    @pytest.mark.parametrize("n, won_share", [
        (1200, 0.4),     # t spans +-40 on the lost rows
        (3600, 0.0),     # all censored
        (300, 1.0),      # all won
        (1, 0.0),        # one lost row
        (1, 1.0),        # one won row
    ])
    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_bitwise_equal_to_scipy_stats_body(self, n, won_share, l2):
        model, packed, bids, prices, wins = oracle_rows(n, won_share, seed=n)
        assert wins.all() == (won_share == 1.0) and wins.any() == (won_share > 0.0)
        loss, grads = censored_nll(model, packed, bids, prices, wins, l2=l2)
        ref_loss, ref = reference_censored_nll(model, packed, bids, prices, wins, l2=l2)
        assert np.array_equal(loss, ref_loss)
        for key in ("mu_w", "mu_b", "logsig_w", "logsig_b"):
            assert np.array_equal(grads[key], ref[key]), key


def recovery_market(seed, n=12_000):
    # one categorical field keeps the per-category means identifiable; all
    # means sit >= 3 sigma above zero so the physical price clip is inert
    spec = SynthSpec(
        field_dims=(3,),
        mixture_weights=(1.0,),
        mixture_probs=(((0.34, 0.33, 0.33),),),
        price_mu=(((25.0, 0.0, -20.0),), 85.0),
        price_logsig=(((0.0, 0.0, 0.0),), float(np.log(20.0))),
        logging_bid=(75.0, 135.0),
    )
    return generate_synthetic_market(spec, n, stream(seed, "tobit"))


class TestPriceTraining:
    CFG = FitConfig(lr_grid=(0.3,), l2_grid=(1e-6,), max_epochs=300, patience=30)

    def test_tobit_recovery(self):
        market = recovery_market(101)
        idx = np.arange(len(market.samples))
        train = market.samples.subset(idx[:10_000])
        val = market.samples.subset(idx[10_000:])
        censored = 1.0 - train.wins.mean()
        assert 0.15 < censored < 0.45  # meaningfully censored problem

        model, info = train_price_model(train, val, self.CFG)
        probe = onehot_requests([0, 1, 2], market.fdict.width)
        fit_mu = model.mu(probe)
        fit_sig = model.sigma(probe)
        true_mu = np.array([110.0, 85.0, 65.0])
        assert np.all(np.abs(fit_mu - true_mu) / true_mu < 0.05)
        assert np.all(np.abs(fit_sig - 20.0) / 20.0 < 0.05)

    def test_degenerate_constant_price(self):
        width = 2
        reqs = onehot_requests([0] * 400, width)
        prices = np.full(400, 50.0)
        samples = SampleSet(reqs, prices + 5, prices, np.ones(400, bool),
                            np.zeros(400, bool), np.arange(400), width)
        cfg = FitConfig(lr_grid=(0.5,), l2_grid=(1e-8,), batch_size=64,
                        max_epochs=400, patience=400, history=True)
        model, info = train_price_model(samples, samples, cfg)
        probe = onehot_requests([0], width)
        assert abs(float(model.mu(probe)[0]) - 50.0) < 1.0
        # sigma shrinks as the fit tightens: validation NLL non-increasing tail
        hist = np.array(info["history"])
        assert hist[-1] < hist[0]

    def test_warns_only_when_pass_budget_stops_the_fit(self):
        market = recovery_market(103, n=2_000)
        idx = np.arange(2_000)
        train = market.samples.subset(idx[:1_500])
        val = market.samples.subset(idx[1_500:])
        with pytest.warns(UserWarning, match="not the MLE"):
            _, info = train_price_model(train, val,
                                        FitConfig(l2_grid=(1e-6,), max_epochs=1))
        assert info["passes"] == 1 and not info["converged"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, info = train_price_model(train, val, self.CFG)
        assert info["converged"] and info["passes"] < self.CFG.max_epochs

    def test_all_censored_raises(self):
        market = recovery_market(102, n=500)
        s = market.samples
        lost = SampleSet(s.requests, s.bids, np.full(len(s), np.nan),
                         np.zeros(len(s), bool), s.clicks, s.timestamps, s.width)
        with pytest.raises(DataError):
            train_price_model(lost, lost, self.CFG)


class TestClickModel:
    def test_zero_model_nll_is_log2(self):
        packed = onehot_requests([0, 1], 2)
        loss, _ = click_nll(ClickModel(np.zeros(2), 0.0), packed, [0, 1],
                            want_grads=False)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_separable_toy_reaches_perfect_accuracy(self):
        width = 3
        cats = np.array([0, 1] * 200)
        reqs = onehot_requests(cats, width)
        clicks = cats == 0
        samples = SampleSet(reqs, np.full(400, 10.0), np.full(400, 5.0),
                            np.ones(400, bool), clicks, np.arange(400), width)
        cfg = FitConfig(lr_grid=(0.3,), l2_grid=(1e-8,), max_epochs=120, patience=10)
        model, _ = train_click_model(samples, samples, stream(40, "click"), cfg)
        pred = model.prob(reqs) > 0.5
        assert np.array_equal(pred, clicks)

    def test_logistic_recovery(self):
        # 10 categories, known per-category CTRs; n = 1e5 impressions
        rng = stream(41, "click-rec")
        width = 11
        true_logit = np.linspace(-2.2, 1.2, 10)
        cats = rng.integers(0, 10, size=100_000)
        clicks = rng.random(100_000) < 1.0 / (1.0 + np.exp(-true_logit[cats]))
        reqs = onehot_requests(cats, width)
        samples = SampleSet(reqs, np.full(cats.size, 10.0), np.full(cats.size, 5.0),
                            np.ones(cats.size, bool), clicks,
                            np.arange(cats.size), width)
        idx = np.arange(cats.size)
        cfg = FitConfig(lr_grid=(0.1, 0.01), l2_grid=(1e-6,), max_epochs=200,
                        patience=20)
        model, _ = train_click_model(samples.subset(idx[:80_000]),
                                     samples.subset(idx[80_000:]),
                                     stream(41, "fit"), cfg)
        probe = onehot_requests(np.arange(10), width)
        fit_p = model.prob(probe)
        true_p = 1.0 / (1.0 + np.exp(-true_logit))
        assert np.all(np.abs(fit_p - true_p) / true_p < 0.10)

    def test_single_class_gives_prior_model(self):
        width = 2
        reqs = onehot_requests([0] * 50, width)
        samples = SampleSet(reqs, np.full(50, 10.0), np.full(50, 5.0),
                            np.ones(50, bool), np.zeros(50, bool),
                            np.arange(50), width)
        with pytest.warns(UserWarning):
            model, info = train_click_model(samples, samples, stream(42, "c"))
        assert info.get("prior_only")
        assert float(model.prob(reqs)[0]) < 0.05

    def test_average_ctr(self):
        model = ClickModel(np.array([10.0, -10.0]), 0.0)
        reqs = onehot_requests([0, 1], 2)
        assert average_ctr(model, reqs) == pytest.approx(0.5, abs=1e-4)
