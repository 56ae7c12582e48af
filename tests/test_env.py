import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from rtblab.data import PackedRequests
from rtblab.env import (
    TAPE_BLOCK,
    EnvMeta,
    EnvParts,
    NonFiniteBidError,
    SimEnv,
    check_split_wiring,
    make_env_factory,
)
from rtblab.errors import ConfigError
from rtblab.market_action import ClickModel, PriceModel
from rtblab.market_state import EmpiricalSampler
from rtblab.rng import stream


def const_price_model(width, mu, per_index=None):
    w = np.zeros(width)
    if per_index:
        for i, v in per_index.items():
            w[i] = v
    return PriceModel(w, mu, np.zeros(width), -20.0)  # sigma ~ 2e-9


def env_over(reqs, price, seed, label="e", utility="impression", click_model=None):
    meta = EnvMeta(cpm_ref=5000.0, t0_ref=100)
    return SimEnv(
        EmpiricalSampler(reqs, stream(seed, label, "x")),
        price,
        click_model,
        utility,
        meta,
        stream(seed, label, "m"),
    )


def two_type_env(seed, label="e", utility="impression", click_model=None):
    # request 0 -> price 3, request 1 -> price 7
    reqs = PackedRequests.from_rows([[0], [1]], 2)
    price = const_price_model(2, 0.0, {0: 3.0, 1: 7.0})
    return env_over(reqs, price, seed, label, utility, click_model)


def noisy_env(seed, label="e"):
    # two request types with mean prices 3 and 7, sigma 2
    reqs = PackedRequests.from_rows([[0], [1]], 2)
    price = PriceModel(np.array([3.0, 7.0]), 0.0, np.zeros(2), float(np.log(2.0)))
    return env_over(reqs, price, seed, label)


def flat_price_env(seed, mu, sigma, label="p", utility="impression", click_model=None):
    reqs = PackedRequests.from_rows([[0]], 2)
    price = PriceModel(np.zeros(2), mu, np.zeros(2), float(np.log(sigma)))
    return env_over(reqs, price, seed, label, utility, click_model)


class CountingSampler:
    """Wraps a sampler and records the size of every batch drawn."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    def sample_batch(self, n):
        self.sizes.append(n)
        return self.inner.sample_batch(n)


class TestReset:
    def test_normalized_observation(self):
        env = two_type_env(70)
        obs = env.reset(2070.0, 100)
        # scale = cpm_ref * t0_ref / 1000 = 500
        assert obs.budget_norm == pytest.approx(2070.0 / 500.0)
        assert obs.time_norm == pytest.approx(1.0)

    def test_single_step_episode(self):
        env = two_type_env(71)
        env.reset(10.0, 1)
        out = env.step(8.0)
        assert out.done
        with pytest.raises(RuntimeError):
            env.step(1.0)

    def test_same_seed_same_first_request(self):
        a = two_type_env(72).reset(10, 5)
        b = two_type_env(72).reset(10, 5)
        assert a.request == b.request


class TestStep:
    def test_zero_bid_never_wins(self):
        env = two_type_env(74)
        env.reset(100.0, 20)
        while not env.done:
            out = env.step(0.0)
            assert not out.won and out.reward == 0 and out.cost == 0.0
        assert env.state.budget == 100.0

    def test_deterministic_price_win(self):
        env = two_type_env(75)
        obs = env.reset(100.0, 10)
        want_price = 3.0 if obs.request.indices[0] == 0 else 7.0
        out = env.step(10.0)
        assert out.won and out.reward == 1
        assert out.cost == pytest.approx(want_price, abs=1e-6)
        assert env.state.budget == pytest.approx(100.0 - want_price, abs=1e-6)

    def test_budget_clips_effective_bid(self):
        # b=5, bid 10 against deterministic price 7: effective 5 loses, costs 0
        reqs = PackedRequests.from_rows([[0]], 1)
        price = const_price_model(1, 7.0)
        env = SimEnv(
            EmpiricalSampler(reqs, stream(76, "x")),
            price, None, "impression",
            EnvMeta(cpm_ref=7000.0, t0_ref=10), stream(76, "m"),
        )
        env.reset(5.0, 3)
        out = env.step(10.0)
        assert not out.won and out.cost == 0.0
        assert env.state.budget == 5.0

    def test_non_finite_bid_refused(self):
        env = two_type_env(88)
        env.reset(10.0, 3)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(NonFiniteBidError):
                env.step(bad)
        assert env.state.time_left == 3 and env.spend == 0.0

    def test_click_utility_needs_win(self):
        always = ClickModel(np.zeros(2), 50.0)  # p ~ 1
        env = two_type_env(77, utility="click", click_model=always)
        env.reset(1000.0, 20)
        rewards = []
        while not env.done:
            rewards.append(env.step(10.0).reward)
        assert all(r == 1 for r in rewards)  # every win clicks at p ~ 1
        env2 = two_type_env(78, utility="click", click_model=always)
        env2.reset(1000.0, 20)
        assert all(env2.step(0.0).reward == 0 for _ in range(20))


class TestInvariants:
    def test_budget_conservation_random_episodes(self):
        for ep in range(30):
            env = two_type_env(100 + ep)
            rng = stream(200, ep)
            b0 = float(rng.uniform(0, 80))
            env.reset(b0, 50)
            while not env.done:
                env.step(float(rng.uniform(0, 10)))
                assert env.state.budget >= 0.0
            assert env.budget_conservation_error() <= 1e-9
            assert env.state.time_left == 0

    def test_reward_bounded_by_win(self):
        click = ClickModel(np.zeros(2), 0.0)
        env = two_type_env(79, utility="click", click_model=click)
        env.reset(500.0, 100)
        while not env.done:
            out = env.step(10.0)
            assert out.reward <= int(out.won) <= 1

    def test_dominance_under_shared_tape(self):
        # same seed, pointwise-higher bids win a superset of auctions
        lo_env = two_type_env(80, label="tape")
        hi_env = two_type_env(80, label="tape")
        lo_env.reset(10_000.0, 60)
        hi_env.reset(10_000.0, 60)
        lo_wins, hi_wins = [], []
        rng = stream(81, "bids")
        for _ in range(60):
            b = float(rng.uniform(0, 8))
            lo_wins.append(lo_env.step(b).won)
            hi_wins.append(hi_env.step(b + 1.0).won)
        assert all(h or not l for l, h in zip(lo_wins, hi_wins))

    def test_request_draws_independent(self):
        # lag-1 autocorrelation of the request identity is ~ 0
        env = two_type_env(82)
        env.reset(0.0, 10_000)
        ids = []
        while not env.done:
            ids.append(float(env._request.indices[0]))
            env.step(0.0)
        ids = np.array(ids)
        a, b = ids[:-1] - ids.mean(), ids[1:] - ids.mean()
        r = float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))
        assert abs(r) < 3.0 / np.sqrt(ids.size)


class TestTape:
    def test_prices_and_requests_do_not_depend_on_bids(self):
        lo_env = noisy_env(83, label="tape")
        hi_env = noisy_env(83, label="tape")
        lo_obs = lo_env.reset(10_000.0, 300)
        hi_obs = hi_env.reset(10_000.0, 300)
        rng = stream(84, "bids")
        while not lo_env.done:
            assert lo_obs.request == hi_obs.request
            lo_out = lo_env.step(float(rng.uniform(0, 4)))
            hi_out = hi_env.step(float(rng.uniform(4, 12)))
            assert lo_out.price == hi_out.price
            lo_obs, hi_obs = lo_out.observation, hi_out.observation
        assert hi_env.done and lo_env.total_reward < hi_env.total_reward

    def test_episode_across_blocks(self):
        t0 = 2 * TAPE_BLOCK + 37
        runs = []
        for _ in range(2):
            env = noisy_env(85)
            env.sampler = CountingSampler(env.sampler)
            obs = env.reset(4000.0, t0)
            rng = stream(86, "bids")
            trace = []
            while not env.done:
                out = env.step(float(rng.uniform(0, 10)))
                assert env.state.budget >= 0.0
                trace.append((int(obs.request.indices[0]), out.price, out.won))
                obs = out.observation
            assert env.sampler.sizes == [TAPE_BLOCK, TAPE_BLOCK, 37]
            assert env.budget_conservation_error() <= 1e-9
            assert len(trace) == t0
            # the terminal observation repeats the last request
            assert int(obs.request.indices[0]) == trace[-1][0]
            runs.append((trace, env.spend, env.total_reward))
        assert runs[0] == runs[1]

    def test_empty_and_multi_hot_requests_priced_per_row(self):
        # a ragged corpus with an empty request packs into every tape block
        reqs = PackedRequests.from_rows([[0, 1], [], [2]], 3)
        want = {(0, 1): 3.5, (): 0.5, (2,): 4.5}
        price = PriceModel(np.array([1.0, 2.0, 4.0]), 0.5, np.zeros(3), -20.0)
        env = env_over(reqs, price, 87)
        obs = env.reset(0.0, 300)
        while not env.done:
            out = env.step(0.0)
            assert out.price == pytest.approx(want[tuple(obs.request.indices)], abs=1e-6)
            obs = out.observation


class TestPriceSampling:
    def test_sigma_zero_returns_mu(self):
        env = flat_price_env(31, 7.0, np.exp(-20.0))
        env.reset(0.0, 1)
        assert env.step(0.0).price == pytest.approx(7.0, abs=1e-6)

    def test_negative_mean_clips_to_zero(self):
        env = flat_price_env(32, -5.0, 0.01)
        env.reset(0.0, 20)
        assert all(env.step(0.0).price == 0.0 for _ in range(20))

    def test_clipped_mean_quadrature_oracle(self):
        mu, sig = 8.0, 12.0
        env = flat_price_env(33, mu, sig)
        env.reset(0.0, 100_000)
        draws = np.array([env.step(0.0).price for _ in range(100_000)])
        expected, _ = integrate.quad(
            lambda v: v * norm.pdf(v, mu, sig), 0.0, mu + 12 * sig
        )
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * se


class TestClickDraws:
    def test_click_extremes_and_rate(self):
        never = ClickModel(np.zeros(2), -50.0)
        for i in range(20):
            env = flat_price_env(43, 1.0, 1e-9, label=str(i), utility="click",
                                 click_model=never)
            env.reset(1e9, 20)
            assert all(env.step(10.0).reward == 0 for _ in range(20))
        fair = ClickModel(np.zeros(2), 0.0)
        env = flat_price_env(44, 1.0, 1e-9, label="rate", utility="click",
                             click_model=fair)
        env.reset(1e9, 100_000)
        rate = np.mean([env.step(10.0).reward for _ in range(100_000)])
        assert abs(rate - 0.5) < 0.01

    def test_click_deterministic_given_stream(self):
        model = ClickModel(np.zeros(2), 0.3)
        runs = []
        for _ in range(2):
            env = flat_price_env(45, 1.0, 1e-9, label="d", utility="click",
                                 click_model=model)
            env.reset(1e9, 10)
            runs.append([env.step(10.0).reward for _ in range(10)])
        assert runs[0] == runs[1]


class TestWiring:
    def parts(self, splits):
        reqs = PackedRequests.from_rows([[0]], 1)
        return EnvParts(
            sampler_factory=lambda rng: EmpiricalSampler(reqs, rng),
            price_model=const_price_model(1, 5.0),
            click_model=None,
            meta=EnvMeta(cpm_ref=5000.0, t0_ref=10),
            splits=splits,
        )

    def test_matching_tags_ok(self):
        factory = make_env_factory(self.parts({"market": "train", "price": "train"}),
                                   "impression", 1, "train")
        env = factory("ep0")
        env.reset(10, 2)
        assert env.step(6.0).won

    def test_mismatched_tags_raise(self):
        with pytest.raises(ConfigError):
            make_env_factory(self.parts({"market": "test", "price": "train"}),
                             "impression", 1, "test")

    def test_check_split_wiring_message(self):
        with pytest.raises(ConfigError):
            check_split_wiring({"price": "train"}, "test")
