"""Evaluation protocol: independent episodes in the test environment,
the budget-multiplier sweep, and report rendering.

The agent only ever sees the observed state: the request (a 1-row
PackedRequests), the normalized budget and the normalized time left.
Market prices are drawn after the bid is committed.
"""

from dataclasses import dataclass, field

import numpy as np

from .env import NonFiniteBidError, episode_budget


@dataclass
class EvalResult:
    mean: float
    std: float
    totals: list
    spends: list
    aborted: int = 0


def run_episode(env, agent, b0: float, t0: int):
    """Returns (total reward, total spend) for one episode."""
    obs = env.reset(b0, t0)
    while not env.done:
        out = env.step(float(agent.bid(obs)))
        obs = out.observation
    return env.total_reward, env.spend


def evaluate_policy(env_factory, agent, b0: float, t0: int, repeats: int,
                    label: str = "eval") -> EvalResult:
    """Mean/std of total reward over `repeats` independent episodes.

    Every episode runs in a fresh environment with its own rng streams.
    An episode where the agent emits a non-finite bid is aborted,
    reported in the result, and excluded from the statistics; any other
    error propagates.
    """
    totals, spends, aborted = [], [], 0
    for ep in range(repeats):
        env = env_factory(f"{label}-{ep}")
        try:
            reward, spend = run_episode(env, agent, b0, t0)
        except NonFiniteBidError:
            aborted += 1
            continue
        totals.append(reward)
        spends.append(spend)
    arr = np.asarray(totals, dtype=np.float64)
    mean = float(arr.mean()) if arr.size else float("nan")
    std = float(arr.std()) if arr.size else float("nan")
    return EvalResult(mean, std, totals, spends, aborted)


@dataclass
class ResultRow:
    agent: str
    alpha: float
    reward_pct: float
    std_pct: float
    spend: float
    episodes: int


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    config_echo: list = field(default_factory=list)


def budget_sweep(agents: dict, env_factory, cpm_te: float, t0: int,
                 alphas=(0.25, 0.5, 1.0, 2.0, 4.0), repeats: int = 10,
                 config_echo=None) -> ResultTable:
    """For each (agent, alpha): b0 = episode_budget(alpha, cpm_te, t0),
    reward percentage over the episode length."""
    table = ResultTable(config_echo=list(config_echo or []))
    for name, agent in agents.items():
        for alpha in alphas:
            b0 = episode_budget(alpha, cpm_te, t0)
            res = evaluate_policy(env_factory, agent, b0, t0, repeats,
                                  label=f"{name}-a{alpha}")
            table.rows.append(ResultRow(
                agent=name,
                alpha=float(alpha),
                reward_pct=100.0 * res.mean / t0,
                std_pct=100.0 * res.std / t0,
                spend=float(np.mean(res.spends)) if res.spends else float("nan"),
                episodes=len(res.totals),
            ))
    return table


def _trim(x: float, places: int = 2) -> str:
    """Round then drop trailing zeros: 0.10 -> '0.1', 1.00 -> '1'."""
    s = f"{round(x, places):.{places}f}".rstrip("0").rstrip(".")
    return s if s not in ("", "-") else "0"


def format_pm(mean: float, std: float) -> str:
    return f"{mean:.2f} ± {_trim(std)}"


def write_report(table: ResultTable, path, fmt: str = "tsv") -> None:
    """Deterministic column order; values rounded to two decimals."""
    lines = []
    if fmt == "tsv":
        lines.append("agent\talpha\treward_pct\tstd_pct\tspend\tepisodes")
        for r in table.rows:
            lines.append(
                f"{r.agent}\t{_trim(r.alpha, 4)}\t{r.reward_pct:.2f}"
                f"\t{r.std_pct:.2f}\t{r.spend:.2f}\t{r.episodes}"
            )
    elif fmt == "text":
        width = max(len(r.agent) for r in table.rows)
        lines.append(f"{'agent':<{width}}  {'alpha':>6}  {'reward %':>16}  {'spend':>10}")
        for r in table.rows:
            lines.append(
                f"{r.agent:<{width}}  {_trim(r.alpha, 4):>6}  "
                f"{format_pm(r.reward_pct, r.std_pct):>16}  {r.spend:>10.2f}"
            )
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    for echo in table.config_echo:
        lines.append(f"# {echo}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report_tsv(path) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        for line in fh:
            if line.startswith("#"):
                continue
            agent, alpha, pct, std, spend, eps = line.rstrip("\n").split("\t")
            rows.append(ResultRow(agent, float(alpha), float(pct), float(std),
                                  float(spend), int(eps)))
    return rows
