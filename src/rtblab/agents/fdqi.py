"""Fitted deep Q-iteration from logged trajectories.

The batch log has no advertiser state, so episodes are reconstructed by
chunking the time-ordered records into fixed-length sequences; each
chunk's starting budget is the spend it actually incurred, and the
budget trace replays the realized costs. Training alternates freezing a
target copy and regressing the online network toward the one-step
bootstrapped returns over the whole transition set.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..data import SampleSet
from ..env import budget_norm
from ..errors import DataError, NumericalError
from ..optim import AdamState, adam_step
from .base import ActionGrid
from .qnet import QNetwork, q_forward, td_regression
from .replay import batch_arrays

# share of the transitions held out to pick the best fitted iteration
HOLDOUT_FRACTION = 0.1


def fitted_q_loss(qnet: QNetwork, target_net: QNetwork, batch: dict):
    """Squared error against the frozen-network target
    r + max_a' Q_target(s', a') (undiscounted); terminal rows regress to r."""
    q_next = q_forward(target_net, batch["next_packed"], batch["next_b"],
                       batch["next_t"])
    return td_regression(qnet, batch,
                         batch["reward"] + q_next.max(axis=1) * (~batch["done"]))


def fdqi_build_transitions(samples: SampleSet, grid: ActionGrid, t0: int,
                           cpm_ref: float, utility: str = "impression") -> dict:
    """Chunk records into consecutive t0-step episodes and reconstruct
    (observation, grid action, realized reward, next observation, done)
    as a transition table (see replay). Records past the last whole
    episode are dropped."""
    n = len(samples)
    if n == 0:
        raise DataError("no records to build transitions from")
    if n < t0:
        warnings.warn(f"only {n} records; using one shorter episode")
    m = min(n, t0)   # steps per episode
    rows = np.arange(n - n % m).reshape(-1, m)   # one episode per row
    nxt = rows + 1
    nxt[:, -1] = rows[:, -1]   # the terminal step keeps its own request

    costs = np.where(samples.wins, np.nan_to_num(samples.prices), 0.0)[rows]
    rewards = (samples.clicks if utility == "click" else samples.wins).astype(float)
    # the budget before each step, from the episode's spend down to zero,
    # subtracting one cost at a time as the episode spends it
    budget = np.subtract.accumulate(np.column_stack([costs.sum(axis=1), costs]), axis=1)
    budget = budget_norm(budget, cpm_ref, t0)
    time_left = np.arange(m, -1, -1) / t0
    done = np.arange(m) == m - 1
    episodes, flat = rows.shape[0], rows.ravel()
    return {
        "packed": samples.requests.rows(flat),
        "b": budget[:, :-1].ravel(),
        "t": np.tile(time_left[:-1], episodes),
        "action": grid.nearest_index(samples.bids[flat]),
        "reward": rewards[flat],
        "next_packed": samples.requests.rows(nxt.ravel()),
        "next_b": budget[:, 1:].ravel(),
        "next_t": np.tile(time_left[1:], episodes),
        "done": np.tile(done, episodes),
    }


@dataclass
class FdqiConfig:
    outer_iters: int = 10         # target refreshes
    epochs_per_iter: int = 2      # full passes over the data per refresh
    batch_size: int = 256
    lr: float = 1e-3
    n_actions: int = 20
    shared_width: int = 128
    branch_width: int = 64


@dataclass
class FdqiDiagnostics:
    holdout_td: list = field(default_factory=list)
    iterations: int = 0


def fdqi_train(transitions, width: int, cfg: FdqiConfig, rng, price_model=None):
    """Repeated fitted iterations over the full batch of a transition
    table; keeps the best-so-far network by held-out TD error and aborts
    on divergence."""
    n = len(transitions["reward"])
    if n == 0:
        raise DataError("fdqi needs at least one transition")
    qnet = QNetwork.build(width, rng, n_actions=cfg.n_actions,
                          shared=cfg.shared_width, branch=cfg.branch_width,
                          price_model=price_model)
    state = AdamState(qnet.params)

    ids = rng.permutation(n)
    n_hold = max(1, int(HOLDOUT_FRACTION * n))
    hold = ids[:n_hold]
    train = ids[n_hold:] if n > n_hold else hold
    hold_batch = batch_arrays(transitions, hold)

    best = None
    diag = FdqiDiagnostics()
    for it in range(cfg.outer_iters):
        target = qnet.copy()
        for _ in range(cfg.epochs_per_iter):
            order = rng.permutation(len(train))
            for s in range(0, len(train), cfg.batch_size):
                batch = batch_arrays(transitions, train[order[s : s + cfg.batch_size]])
                loss, grads = fitted_q_loss(qnet, target, batch)
                if not np.isfinite(loss):
                    raise NumericalError(f"fdqi diverged at iteration {it}")
                adam_step(qnet.params, grads, state, lr=cfg.lr)
        td, _ = fitted_q_loss(qnet, qnet, hold_batch)
        diag.holdout_td.append(td)
        diag.iterations = it + 1
        if best is None or td < best[0]:
            best = (td, qnet.copy())
    return best[1], diag
