"""Exploration-trained dueling double DQN.

Workers step independent environment instances in synchronous rounds and
feed one replay buffer; a single optimizer updates the online network
once per round after warmup, and the target network is refreshed every
target_sync updates. Each episode draws a fresh budget multiplier so the
policy learns to generalize across advertiser states.
"""

from dataclasses import dataclass, field

import numpy as np

from ..env import episode_budget
from ..errors import NumericalError
from ..optim import AdamState, adam_step
from .base import ActionGrid
from .qnet import QNetwork, q_forward, q_values, td_regression
from .replay import ReplayBuffer, batch_arrays

BUFFER_CAPACITY = 2_500_000   # replay transitions kept
EPS_FLOOR = 0.2               # exploration rate the schedule decays to
ALPHA_RANGE = (-2.0, 2.0)     # budget multiplier alpha = 2^U(-2, 2)


def epsilon_schedule(step: int, floor: float = EPS_FLOOR,
                     scale: float = 500_000.0) -> float:
    """floor + (1 - floor) * exp(-step / scale)."""
    return floor + (1.0 - floor) * float(np.exp(-step / scale))


def act_epsilon_greedy(qnet: QNetwork, obs, eps: float, rng) -> int:
    """Uniform action with probability eps, else greedy (lowest index wins ties)."""
    if rng.random() < eps:
        return int(rng.integers(qnet.n_actions))
    return int(np.argmax(q_values(qnet, obs)))


def ddqn_loss(qnet: QNetwork, target_net: QNetwork, batch: dict):
    """Mean squared TD error with the undiscounted double-Q target: the
    target network evaluated at the online network's argmax action;
    terminal rows use r."""
    q_next_online = q_forward(qnet, batch["next_packed"], batch["next_b"],
                              batch["next_t"])
    a_star = np.argmax(q_next_online, axis=1)
    q_next_target = q_forward(target_net, batch["next_packed"], batch["next_b"],
                              batch["next_t"])
    boot = q_next_target[np.arange(a_star.size), a_star]
    return td_regression(qnet, batch, batch["reward"] + boot * (~batch["done"]))


@dataclass
class DdqnConfig:
    total_steps: int = 200_000        # worker env steps (desk scale)
    workers: int = 4
    batch_size: int = 32
    lr: float = 1e-3
    warmup_steps: int = 2000
    target_sync: int = 5000           # optimizer updates between target copies
    eps_scale: float = 500_000.0
    t0: int = 1000                    # episode length
    fixed_budget: float = None        # overrides alpha sampling when set
    n_actions: int = 20
    shared_width: int = 128
    branch_width: int = 64


@dataclass
class DdqnDiagnostics:
    losses: list = field(default_factory=list)
    episode_rewards: list = field(default_factory=list)
    steps: int = 0
    updates: int = 0


def _draw_budget(cfg: DdqnConfig, cpm_ref: float, rng) -> float:
    if cfg.fixed_budget is not None:
        return float(cfg.fixed_budget)
    return episode_budget(2.0 ** rng.uniform(*ALPHA_RANGE), cpm_ref, cfg.t0)


def train_ddqn(env_factory, grid: ActionGrid, cfg: DdqnConfig, rng,
               price_model=None):
    """Train the online network in a factory of training environments.

    The request bottleneck starts from the price model's mean head when
    given. Returns (qnet, diagnostics).
    """
    envs = [env_factory(f"ddqn-w{i}") for i in range(cfg.workers)]
    width = envs[0].price_model.mu_w.size
    qnet = QNetwork.build(width, rng, n_actions=len(grid), shared=cfg.shared_width,
                          branch=cfg.branch_width, price_model=price_model)
    target = qnet.copy()
    state = AdamState(qnet.params)
    buffer = ReplayBuffer(BUFFER_CAPACITY)
    diag = DdqnDiagnostics()

    obs = []
    for env in envs:
        obs.append(env.reset(_draw_budget(cfg, env.meta.cpm_ref, rng), cfg.t0))

    steps = 0
    updates = 0
    while steps < cfg.total_steps:
        for i, env in enumerate(envs):
            eps = epsilon_schedule(steps, scale=cfg.eps_scale)
            a = act_epsilon_greedy(qnet, obs[i], eps, rng)
            out = env.step(float(grid.values[a]))
            buffer.push(obs[i].request, obs[i].budget_norm, obs[i].time_norm,
                        a, out.reward,
                        out.observation.request, out.observation.budget_norm,
                        out.observation.time_norm, out.done)
            steps += 1
            if out.done:
                diag.episode_rewards.append(env.total_reward)
                obs[i] = env.reset(_draw_budget(cfg, env.meta.cpm_ref, rng), cfg.t0)
            else:
                obs[i] = out.observation

        if steps >= cfg.warmup_steps and len(buffer) >= cfg.batch_size:
            batch = batch_arrays(buffer, buffer.sample(cfg.batch_size, rng))
            loss, grads = ddqn_loss(qnet, target, batch)
            if not np.isfinite(loss):
                raise NumericalError(f"ddqn loss non-finite at step {steps}")
            adam_step(qnet.params, grads, state, lr=cfg.lr)
            updates += 1
            diag.losses.append(loss)
            if updates % cfg.target_sync == 0:
                target = qnet.copy()
    diag.steps = steps
    diag.updates = updates
    return qnet, diag
