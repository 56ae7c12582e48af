"""Simulated second-price bidding environment.

Composes a market-state sampler (generator or empirical), the price
model, and the click model. The advertiser state is (budget left, time
left); requests are i.i.d. across steps, so the only coupling between
steps is the budget.

No market draw depends on the bids, so an episode is a tape of
(request, market price w_t, click uniform u_t) fixed by the seed. The
environment draws that tape in blocks of at most TAPE_BLOCK steps: one
block on reset and the next whenever the cursor runs off the end of the
current one. Each block is drawn in this order:

1. the requests, in one sampler call on the request ("x") stream;
2. the prices w = max(N(mu, sigma^2), 0) of every row, by
   PriceModel.draw on the market stream, then one click uniform per
   row on the same stream;
3. under click utility, the click probabilities of the block's rows.

step() only reads the next tape entry, so replaying a seed gives every
policy the same requests, prices and click uniforms. An observation's
request is the 1-row PackedRequests of its tape row.

The budget rule is defined here once: episode_budget(alpha, cpm, t0)
starts an episode, and budget_norm encodes a budget as a Q-network
input, for the evaluation sweep, linbid tuning, the rlb budget grid,
DDQN's budget draws, the observations and fdqi's logged states.
"""

import math
from dataclasses import dataclass, field

from .data import PackedRequests
from .errors import ConfigError
from .market_action import PriceModel

# steps per tape block; bounds the block's request and Gumbel-noise
# arrays when episodes are long (T0 = 100 000 at paper scale)
TAPE_BLOCK = 1024


class NonFiniteBidError(ValueError):
    """The agent bid NaN or an infinity; the step is refused."""


def episode_budget(alpha: float, cpm: float, t0: int) -> float:
    """The starting budget of a t0-step episode at multiplier alpha:
    alpha times the spend of t0 requests at cpm (cost per 1000)."""
    return alpha * cpm * t0 / 1000.0


def budget_norm(budget, cpm: float, t0: int):
    """A budget (scalar or array) in units of episode_budget(1, cpm, t0)."""
    return budget / max(episode_budget(1.0, cpm, t0), 1e-12)


@dataclass
class AdvertiserState:
    budget: float
    time_left: int


@dataclass
class Observation:
    request: PackedRequests   # 1-row batch: this step's request
    budget_norm: float   # budget_norm(budget, cpm_ref, t0_ref)
    time_norm: float     # time left / t0_ref
    budget: float
    time_left: int


@dataclass
class StepOutcome:
    observation: Observation   # next observation (same request at terminal)
    reward: int
    cost: float
    done: bool
    won: bool
    price: float


@dataclass
class EnvMeta:
    cpm_ref: float = 1.0     # train-split spend per 1000 requests (norm anchor)
    t0_ref: int = 1000


class SimEnv:
    """One advertiser bidding against the learned market."""

    def __init__(self, sampler, price_model: PriceModel, click_model,
                 utility: str, meta: EnvMeta, rng):
        if utility == "click" and click_model is None:
            raise ConfigError("click utility needs a click model")
        self.sampler = sampler
        self.price_model = price_model
        self.click_model = click_model
        self.utility = utility
        self.meta = meta
        self.rng = rng
        self.state = None
        self._b0 = 0.0
        self.spend = 0.0
        self.total_reward = 0
        self._request = None
        # the current tape block: requests, prices, click uniforms and
        # click probabilities (None under impression utility)
        self._requests = self._prices = self._click_u = self._click_p = None
        self._cursor = 0

    def _norm_obs(self) -> Observation:
        return Observation(
            self._request,
            budget_norm(self.state.budget, self.meta.cpm_ref, self.meta.t0_ref),
            self.state.time_left / self.meta.t0_ref,
            self.state.budget,
            self.state.time_left,
        )

    @property
    def done(self) -> bool:
        return self.state is None or self.state.time_left == 0

    def reset(self, b0: float, t0: int) -> Observation:
        self.state = AdvertiserState(float(b0), int(t0))
        self._b0 = float(b0)
        self.spend = 0.0
        self.total_reward = 0
        self._draw_block()
        return self._norm_obs()

    def _draw_block(self) -> None:
        """Draw the tape for the next min(time left, TAPE_BLOCK) steps."""
        n = min(self.state.time_left, TAPE_BLOCK)
        requests = self.sampler.sample_batch(n)
        self._prices = self.price_model.draw(requests, self.rng).tolist()
        self._click_u = self.rng.random(n).tolist()
        self._click_p = (self.click_model.prob(requests).tolist()
                         if self.utility == "click" else None)
        self._requests = requests
        self._cursor = 0
        self._request = requests.rows([0])

    def step(self, bid: float) -> StepOutcome:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if not math.isfinite(bid):
            raise NonFiniteBidError(f"non-finite bid {bid!r}")
        i = self._cursor
        w = self._prices[i]
        effective = min(max(float(bid), 0.0), self.state.budget)
        won = effective > w
        cost = w if won else 0.0
        if self.utility == "impression":
            reward = int(won)
        else:
            reward = int(won and self._click_u[i] < self._click_p[i])

        self.state.budget -= cost
        self.state.time_left -= 1
        self.spend += cost
        self.total_reward += reward
        if self.state.time_left > 0:
            if i + 1 == len(self._requests):
                self._draw_block()
            else:
                self._cursor = i + 1
                self._request = self._requests.rows([i + 1])
        return StepOutcome(self._norm_obs(), reward, cost, self.done, won, w)

    def budget_conservation_error(self) -> float:
        return abs(self.spend + self.state.budget - self._b0)


@dataclass
class EnvParts:
    """Models plus provenance for wiring one environment."""

    sampler_factory: object    # callable(rng) -> sampler
    price_model: PriceModel
    click_model: object        # ClickModel or None
    meta: EnvMeta
    splits: dict = field(default_factory=dict)  # component -> split tag


def check_split_wiring(splits: dict, expected: str) -> None:
    """All wired components must come from the same data split."""
    bad = {k: v for k, v in splits.items() if v != expected}
    if bad:
        raise ConfigError(f"environment expects split {expected!r} but got {bad}")


def make_env_factory(parts: EnvParts, utility: str, seed: int, expected_split: str):
    """Factory of independent SimEnv instances (one rng stream each) for
    the "train" or "test" environment."""
    from .rng import stream

    check_split_wiring(parts.splits, expected_split)

    def make(label) -> SimEnv:
        return SimEnv(
            parts.sampler_factory(stream(seed, expected_split, label, "x")),
            parts.price_model,
            parts.click_model,
            utility,
            parts.meta,
            stream(seed, expected_split, label, "market"),
        )

    return make

