"""Linear bidding: bid = b0 * theta(x).

Under impression utility every request is worth the same, so theta is 1
and the strategy degenerates to a tuned constant bid. Under click
utility theta is the predicted click rate over its corpus average.
"""

import numpy as np

from ..errors import ConfigError
from ..evaluate import evaluate_policy


def linbid_act(b0: float, request, utility: str = "impression",
               click_model=None, avg_ctr: float = None) -> float:
    """Bid for one request, a 1-row PackedRequests."""
    if utility == "impression":
        return float(b0)
    if click_model is None or not avg_ctr:
        raise ConfigError("click utility needs a click model and its average ctr")
    p = float(click_model.prob(request)[0])
    return float(b0) * p / avg_ctr


class LinBidAgent:
    def __init__(self, b0: float, utility: str = "impression",
                 click_model=None, avg_ctr: float = None):
        self.b0 = float(b0)
        self.utility = utility
        self.click_model = click_model
        self.avg_ctr = avg_ctr

    def bid(self, obs) -> float:
        return linbid_act(self.b0, obs.request, self.utility,
                          self.click_model, self.avg_ctr)


def default_base_grid(histogram) -> np.ndarray:
    """20 quantiles of the training market price distribution."""
    if histogram.empty:
        raise ConfigError("cannot build a base-bid grid from an empty histogram")
    cdf = np.cumsum(histogram.probs)
    qs = (np.arange(20) + 1) / 20.0
    values = np.array([np.searchsorted(cdf, q) for q in qs], dtype=np.float64)
    return np.unique(np.maximum(values, 1.0))


def linbid_tune(env_factory, grid, episodes_per_point: int, b0_eval: float,
                t0: int, utility: str = "impression", click_model=None,
                avg_ctr: float = None):
    """Grid argmax of mean episode reward at the alpha = 1 evaluation
    budget on the training environment; ties go to the smaller base bid.

    Returns (best base bid, per-point mean rewards).
    """
    grid = np.asarray(sorted(grid), dtype=np.float64)
    if grid.size == 0:
        raise ConfigError("linbid grid must be non-empty")
    means = []
    for gi, base in enumerate(grid):
        agent = LinBidAgent(base, utility, click_model, avg_ctr)
        means.append(evaluate_policy(env_factory, agent, b0_eval, t0, episodes_per_point,
                                     label=f"linbid-{gi}").mean)
    best = int(np.argmax(means))  # first max = smallest base on ties
    return float(grid[best]), dict(zip(grid.tolist(), means))
