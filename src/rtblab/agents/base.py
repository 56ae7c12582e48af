"""Action grid and minimal agent protocol.

An agent exposes bid(observation) -> float. The continuous bid range is
quantized into k same-length intervals over [0, w_max]; grid values are
the interval centers, so the lowest bid is w_max / (2k).
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .qnet import q_values


@dataclass
class ActionGrid:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.size == 0 or np.any(np.diff(self.values) <= 0):
            raise ConfigError("action grid must be strictly increasing")

    @classmethod
    def from_max_price(cls, w_max: float, k: int = 20) -> "ActionGrid":
        if w_max <= 0:
            raise ConfigError(f"w_max must be positive, got {w_max}")
        i = np.arange(k)
        return cls(w_max * (2 * i + 1) / (2 * k))

    def __len__(self) -> int:
        return self.values.size

    def nearest_index(self, bid):
        """Closest grid action to a bid, or to each bid of an array, in
        O(bids) memory; exact midpoints resolve to the lower index."""
        bid = np.asarray(bid, dtype=np.float64)
        out, best = np.zeros(bid.shape, dtype=np.int64), np.full(bid.shape, np.inf)
        for a, v in enumerate(self.values):
            dist = np.abs(v - bid)
            out[dist < best] = a
            best = np.minimum(best, dist)
        return out if out.ndim else int(out)


class GreedyQAgent:
    """Greedy policy over a trained Q-network on the action grid."""

    def __init__(self, qnet, grid: ActionGrid):
        self.qnet = qnet
        self.grid = grid

    def bid(self, obs) -> float:
        q = q_values(self.qnet, obs)
        return float(self.grid.values[int(np.argmax(q))])
