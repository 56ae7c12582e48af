"""Dynamic-programming bidder against independent oracles.

The micro oracle literally enumerates every state-dependent policy and
evaluates it; the sweep oracle is an independent top-down recursion.
Both share the auction semantics: an integer price d is won iff
d < bid and d <= budget, paying d, rewarding 1.
"""

import itertools

import numpy as np
import pytest

from rtblab.agents import ActionGrid, DpTables, RlbAgent, rlb_act, rlb_dp_solve
from rtblab.data import PriceHistogram
from rtblab.errors import ConfigError
from rtblab.rng import stream


def win_set(probs, bid, budget):
    top = min(int(np.ceil(bid)) - 1, probs.size - 1, int(budget))
    return [d for d in range(0, top + 1) if probs[d] > 0]


def recursive_value(probs, grid, t, b, _memo=None):
    """Top-down recursion, memoized on (t, b); independent of the table code."""
    if _memo is None:
        _memo = {}
    if t == 0:
        return 0.0
    key = (t, b)
    if key in _memo:
        return _memo[key]
    best = -np.inf
    for a in grid:
        val = 0.0
        mass = 0.0
        for d in win_set(probs, a, b):
            val += probs[d] * (1.0 + recursive_value(probs, grid, t - 1, b - d, _memo))
            mass += probs[d]
        val += (1.0 - mass) * recursive_value(probs, grid, t - 1, b, _memo)
        best = max(best, val)
    _memo[key] = best
    return best


def enumerate_policies_value(probs, grid, T, b0):
    """Literal policy enumeration: assign an action to every (t, budget)
    state, evaluate each policy exactly, and take the best."""
    states = [(t, b) for t in range(1, T + 1) for b in range(0, b0 + 1)]

    def policy_value(pi, t, b):
        if t == 0:
            return 0.0
        a = pi[(t, b)]
        val, mass = 0.0, 0.0
        for d in win_set(probs, a, b):
            val += probs[d] * (1.0 + policy_value(pi, t - 1, b - d))
            mass += probs[d]
        return val + (1.0 - mass) * policy_value(pi, t - 1, b)

    best = -np.inf
    for assignment in itertools.product(grid, repeat=len(states)):
        pi = dict(zip(states, assignment))
        best = max(best, policy_value(pi, T, b0))
    return best


def per_action_dp(probs, T, B, grid_values):
    """The per-action triple loop the sweep replaced: every action re-sums
    its own prefix of the histogram at every t. Its price loop stops at B
    (a price above B is never paid from a budget b <= B)."""
    k = len(grid_values)
    d_top = np.minimum(np.ceil(grid_values).astype(np.int64) - 1, probs.size - 1)
    value = np.zeros((T + 1, B + 1))
    policy = np.zeros((T + 1, B + 1), dtype=np.int32)
    budgets = np.arange(B + 1)
    for t in range(1, T + 1):
        prev = value[t - 1]
        cand = np.empty((k, B + 1))
        for ai in range(k):
            win_mass = np.zeros(B + 1)
            total = np.zeros(B + 1)
            for d in range(0, min(int(d_top[ai]), B) + 1):
                p = probs[d]
                if p == 0.0:
                    continue
                total[d:] += p * (1.0 + prev[: B + 1 - d])
                win_mass[d:] += p
            cand[ai] = total + (1.0 - win_mass) * prev
        policy[t] = np.argmax(cand, axis=0)
        value[t] = cand[policy[t], budgets]
    return value, policy


class TestDpSolve:
    def test_base_row_is_zero(self):
        m = PriceHistogram(np.array([0.5, 0.5]))
        tables = rlb_dp_solve(m, 3, 5, ActionGrid([0.5, 1.5, 2.5]))
        assert np.all(tables.value[0] == 0.0)

    def test_single_step_certain_win(self):
        # uniform prices {1, 2}; bidding 3 wins always when budget covers
        m = PriceHistogram(np.array([0.0, 0.5, 0.5]))
        tables = rlb_dp_solve(m, 1, 3, ActionGrid([1.0, 2.0, 3.0]))
        assert tables.value[1, 3] == pytest.approx(1.0, abs=1e-12)

    def test_non_normalized_histogram_raises(self):
        with pytest.raises(ConfigError):
            rlb_dp_solve(PriceHistogram(np.array([0.5, 0.4])), 2, 3,
                         ActionGrid([1.0, 2.0]))

    def test_nan_histogram_raises(self):
        # abs(nan - 1) > 1e-9 is False, so the check must be written to fail on NaN
        with pytest.raises(ConfigError):
            rlb_dp_solve(PriceHistogram(np.array([0.5, np.nan])), 2, 3,
                         ActionGrid([1.0, 2.0]))

    def test_matches_literal_policy_enumeration(self):
        # micro instances small enough to enumerate every policy
        m = PriceHistogram(np.array([0.2, 0.5, 0.3]))
        grid = [0.0, 1.5, 2.5]
        for T, b0 in [(1, 2), (2, 1), (2, 2)]:
            tables = rlb_dp_solve(m, T, b0, ActionGrid(grid))
            want = enumerate_policies_value(m.probs, grid, T, b0)
            assert tables.value[T, b0] == pytest.approx(want, abs=1e-9)

    def test_matches_recursive_oracle_sweep(self):
        rng = stream(90, "dp")
        for _ in range(40):
            T = int(rng.integers(1, 5))
            B = int(rng.integers(0, 7))
            d_max = int(rng.integers(1, 4))
            probs = rng.dirichlet(np.ones(d_max + 1))
            k = int(rng.integers(2, 6))
            grid = np.sort(rng.uniform(0.1, d_max + 1.5, size=k))
            grid = np.unique(grid)
            tables = rlb_dp_solve(PriceHistogram(probs), T, B, ActionGrid(grid))
            want = recursive_value(probs, grid.tolist(), T, B)
            assert abs(tables.value[T, B] - want) < 1e-9

    def test_bitwise_equal_to_per_action_loop(self):
        rng = stream(92, "dp")
        cases = set()
        for i in range(300):
            T = int(rng.integers(1, 6))
            B = 0 if i % 10 == 0 else int(rng.integers(1, 12))
            n_prices = int(rng.integers(1, 16))
            probs = rng.dirichlet(np.ones(n_prices))
            probs[rng.random(n_prices) < 0.3] = 0.0
            if probs.sum() == 0.0:
                probs[-1] = 1.0
            probs /= probs.sum()
            k = int(rng.integers(1, 8))
            grid = np.unique(rng.uniform(-2.5, n_prices + B + 3, size=k))
            tables = rlb_dp_solve(PriceHistogram(probs), T, B, ActionGrid(grid))
            value, policy = per_action_dp(probs, T, B, grid)
            assert np.array_equal(tables.value, value)
            assert np.array_equal(tables.policy, policy)
            cases.update(name for name, hit in (
                ("zero-mass price", np.any(probs == 0.0)),
                ("bid that wins nothing", grid[0] <= 0.0),
                ("bid below -1", grid[0] < -1.0),
                ("bid above B+1", grid[-1] > B + 1),
                ("biddable price above B+1", np.any(probs[B + 2: int(np.ceil(grid[-1]))] > 0)),
                ("B = 0", B == 0)) if hit)
        assert len(cases) == 6

    def test_price_above_budget_grid(self):
        # prices 3..5 exceed every budget b <= 2 and can never be paid
        probs = np.full(6, 1 / 6)
        grid = [0.5, 5.5]
        tables = rlb_dp_solve(PriceHistogram(probs), 2, 2, ActionGrid(grid))
        for b in range(3):
            assert tables.value[2, b] == pytest.approx(
                recursive_value(probs, grid, 2, b), abs=1e-12)

    def test_value_monotone_in_time_and_budget(self):
        rng = stream(91, "dp")
        probs = rng.dirichlet(np.ones(4))
        tables = rlb_dp_solve(PriceHistogram(probs), 6, 8,
                              ActionGrid([0.5, 1.5, 2.5, 3.5]))
        assert np.all(np.diff(tables.value, axis=0) >= -1e-12)
        assert np.all(np.diff(tables.value, axis=1) >= -1e-12)


class TestRlbAct:
    def solved(self):
        m = PriceHistogram(np.array([0.1, 0.4, 0.3, 0.2]))
        grid = ActionGrid([0.5, 1.5, 2.5, 3.5])
        return rlb_dp_solve(m, 10, 20, grid), grid

    def test_exact_lookup_inside_table(self):
        tables, grid = self.solved()
        bid = rlb_act(tables, grid, budget=7.0, time_left=4)
        want = float(grid.values[tables.policy[4, 7]])
        assert bid == pytest.approx(min(want, 7.0))

    def test_zero_budget_bids_zero(self):
        tables, grid = self.solved()
        assert rlb_act(tables, grid, budget=0.0, time_left=5) == 0.0

    def test_segment_index_wraps(self):
        tables, grid = self.solved()
        # t = 25 with T_s = 10 -> 3 segments, row index 25 mod 10 = 5
        bid = rlb_act(tables, grid, budget=30.0, time_left=25)
        want = float(grid.values[tables.policy[5, 10]])  # b_seg = 10
        assert bid == pytest.approx(want)

    def test_segmentation_value_close_to_full_horizon(self):
        # exact policy evaluation of the segmented bidder vs the full DP
        m = PriceHistogram(np.array([0.0, 0.3, 0.3, 0.2, 0.2]))
        grid = ActionGrid([0.5, 1.5, 2.5, 3.5, 4.5])
        T, B = 120, 150
        full = rlb_dp_solve(m, T, B, grid)
        seg_tables = rlb_dp_solve(m, 30, B, grid)

        value = np.zeros(B + 1)
        for t in range(1, T + 1):
            nxt = np.zeros(B + 1)
            for b in range(B + 1):
                a = rlb_act(seg_tables, grid, float(b), t)
                val, mass = 0.0, 0.0
                top = min(int(np.ceil(a)) - 1, m.probs.size - 1, b)
                for d in range(0, top + 1):
                    val += m.probs[d] * (1.0 + value[b - d])
                    mass += m.probs[d]
                nxt[b] = val + (1.0 - mass) * value[b]
            value = nxt
        assert value[B] >= 0.9 * full.value[T, B]

    def test_agent_wraps_observation(self):
        tables, grid = self.solved()
        agent = RlbAgent(tables, grid)

        class Obs:
            budget = 5.0
            time_left = 3

        assert agent.bid(Obs()) == rlb_act(tables, grid, 5.0, 3)
