"""Dynamic-programming bidder over (time left, integer budget).

Solves the Bellman recursion against the empirical market price
histogram, assuming prices i.i.d. and independent of the request. A win
at integer price delta requires delta < bid and delta <= budget; the
reward is the impression. long horizons are handled by proportional
budget segmentation over a table solved for a shorter horizon.
"""

from dataclasses import dataclass

import numpy as np

from ..data import PriceHistogram
from ..errors import ConfigError
from .base import ActionGrid


@dataclass
class DpTables:
    value: np.ndarray     # (T+1, B+1)
    policy: np.ndarray    # (T+1, B+1) action indices, smallest maximizer
    horizon: int
    max_budget: int


def rlb_dp_solve(m: PriceHistogram, horizon: int, max_budget: int,
                 grid: ActionGrid) -> DpTables:
    """Value iteration over the exact integer-budget recursion.

    V[t][b] = max_a  sum_{d < a, d <= b} m(d) (1 + V[t-1][b-d])
              + (1 - sum_{d < a, d <= b} m(d)) V[t-1][b]

    Every action's win sum is a prefix over d of one shared sum, so each
    t sweeps the prices once and scores action a when the sweep reaches
    its top price: O(T·D·B) for D prices and B budgets, not O(T·k·D·B)
    for k actions. The losing mass does not depend on t and is computed
    once. No budget b <= B pays a price above B, so the sweep ends there.
    """
    probs = m.probs
    if probs.size == 0 or not abs(probs.sum() - 1.0) <= 1e-9:   # NaN fails too
        raise ConfigError("price histogram must be normalized")
    T, B = int(horizon), int(max_budget)
    k = len(grid)
    # highest price each action can win (-1: none); non-decreasing like the grid
    d_top = np.clip(np.ceil(grid.values).astype(np.int64) - 1, -1,
                    min(probs.size - 1, B))
    # lose[j + 1] = 1 - sum_{d <= j} m(d); a bid winning prices up to e
    # loses lose[min(b, e) + 1] at budget b
    lose = 1.0 - np.concatenate(([0.0], np.cumsum(probs[: d_top[-1] + 1])))

    try:
        value = np.zeros((T + 1, B + 1))
        policy = np.zeros((T + 1, B + 1), dtype=np.int32)
    except (MemoryError, ValueError) as exc:   # numpy refuses sizes it cannot hold
        raise ConfigError(f"the DP tables for horizon {T} and budget grid {B} cannot "
                          f"be allocated ({exc}); lower rlb_horizon") from None
    for t in range(1, T + 1):
        prev = value[t - 1]
        gain = 1.0 + prev
        best, arg = value[t], policy[t]
        total = np.zeros(B + 1)   # sum over the swept d <= b of m(d) (1 + prev[b - d])
        d = 0
        for ai in range(k):
            e = d_top[ai]
            while d <= e:
                p = probs[d]
                if p != 0.0:
                    total[d:] += p * gain[: B + 1 - d]
                d += 1
            cand = total + lose[e + 1] * prev
            cand[: e + 1] = total[: e + 1] + lose[1: e + 2] * prev[: e + 1]
            if ai == 0:
                best[:] = cand
            else:
                better = cand > best  # strict: a tie keeps the smaller bid
                np.copyto(best, cand, where=better)
                arg[better] = ai
    return DpTables(value, policy, T, B)


def rlb_act(tables: DpTables, grid: ActionGrid, budget: float, time_left: int) -> float:
    """Segmented lookup: the remaining episode splits into ceil(t/T_s)
    segments and the current segment is granted budget / segments."""
    if time_left <= 0 or budget <= 0:
        return 0.0
    T_s = tables.horizon
    segments = int(np.ceil(time_left / T_s))
    b_seg = budget / segments
    t_idx = time_left % T_s
    if t_idx == 0:
        t_idx = T_s
    b_idx = int(round(min(b_seg, tables.max_budget)))
    bid = float(grid.values[tables.policy[t_idx, b_idx]])
    return min(bid, budget)


class RlbAgent:
    def __init__(self, tables: DpTables, grid: ActionGrid):
        self.tables = tables
        self.grid = grid

    def bid(self, obs) -> float:
        return rlb_act(self.tables, self.grid, obs.budget, obs.time_left)
