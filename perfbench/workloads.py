"""The three phase workloads: inputs from a seed, set-up stages and the
timed stages of one pass.

Each workload is a closed loop in one process: every `rtb` stage runs
through `rtblab.cli.main` after the previous one has finished. The
program only ever sees the files generated here from the seed.

Sizes are chosen so that a stage's amount of work is fixed by its config
and not by the seed: the WGAN always runs wgan_iters iterations (below
its 500-iteration early-stop floor) and the fitters always run
fit_epochs epochs (not more than their early-stop patience of 10). Only
solve-rlb follows the data: its DP grows with the train split's cpm and
highest price. Every timed stage is kept to well under a second, so
that it is often timed whole in a quiet spell of a shared host.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# categories per synthetic field (the five raw-log columns synth fills)
FIELD_DIMS = (6, 8, 5, 10, 12)
N_RECORDS = 6000
TAG_POOL = tuple(f"tag{i:02d}" for i in range(40))
# share of requests with 0, 1, 2, ... 6 user tags
TAG_COUNT_PROBS = (0.2, 0.2, 0.2, 0.15, 0.1, 0.1, 0.05)
USER_TAGS_COLUMN = 11


def synth_spec_text() -> str:
    """A fixed three-component market; the seed enters only through synth."""
    g = np.random.default_rng(20200401)
    lines = [f"fields = {','.join(map(str, FIELD_DIMS))}",
             "mixture_weights = 0.5,0.3,0.2"]
    for k in range(3):
        for f, d in enumerate(FIELD_DIMS):
            p = g.dirichlet(np.full(d, 0.7)) + 1e-3
            lines.append(f"comp{k}_f{f} = " + ",".join(f"{x:.4f}" for x in p))
    for f, d in enumerate(FIELD_DIMS):
        lines.append(f"price_mu_f{f} = " + ",".join(f"{x:.2f}" for x in g.normal(0, 8, d)))
        lines.append(f"click_f{f} = " + ",".join(f"{x:.2f}" for x in g.normal(0, 0.4, d)))
    lines += ["price_mu_intercept = 70", "price_logsig_intercept = 2.8",
              "click_intercept = -2.5", "logging_bid = 30,130",
              f"n = {N_RECORDS}", "days = 5", "seed = 0"]
    return "\n".join(lines) + "\n"


def add_user_tags(log_path: str, seed: int) -> None:
    """Rewrite the user_tags column with seeded multi-hot tags from a fixed
    pool; some rows get none, as in real logs."""
    g = np.random.default_rng([seed, 7])
    with open(log_path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    counts = g.choice(len(TAG_COUNT_PROBS), size=len(rows), p=TAG_COUNT_PROBS)
    for row, k in zip(rows, counts):
        tags = np.sort(g.choice(len(TAG_POOL), size=k, replace=False))
        row[USER_TAGS_COLUMN] = ",".join(TAG_POOL[t] for t in tags)
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


@dataclass
class Stage:
    """One `rtb` invocation; stages sharing a `metric` are timed together."""

    metric: str
    argv: list


def _sets(*items) -> list:
    out = []
    for item in items:
        out += ["--set", item]
    return out


WGAN = ("wgan_iters=60", "wgan_batch=64", "wgan_z_dim=8", "wgan_gen_hidden=32",
        "wgan_critic_hidden=32", "wgan_lr=1e-3")
FIT = ("fit_epochs=10", "fit_batch=256", "fit_lr_grid=0.3", "fit_l2_grid=1e-4,1e-8")
AGENTS = ("ddqn_total_steps=800", "ddqn_workers=2", "ddqn_warmup=200",
          "ddqn_target_sync=200", "ddqn_eps_scale=2000", "fdqi_outer=2",
          "rlb_horizon=30", "linbid_episodes=1", "t0=100")
# cheap agents for the evaluate set-up
SETUP_AGENTS = ("ddqn_total_steps=600", "ddqn_workers=2", "ddqn_warmup=100",
                "ddqn_target_sync=100", "ddqn_eps_scale=600", "fdqi_outer=1",
                "rlb_horizon=30", "linbid_episodes=1", "t0=50")
EVAL_AGENTS = ("exddqn", "fdqi", "rlb", "linbid")
EVAL_ALPHAS = (0.5, 1, 2)
EVAL_REPEATS = 2
EVAL_T0 = 250
EVAL = (f"t0={EVAL_T0}", "alphas=" + ",".join(map(str, EVAL_ALPHAS)),
        f"repeats={EVAL_REPEATS}", "mmd_n=100", "mmd_repeats=6")
# environment steps in one `rtb evaluate`
EVAL_STEPS = len(EVAL_AGENTS) * len(EVAL_ALPHAS) * EVAL_REPEATS * EVAL_T0


def _ingest(raw, data, sets):
    return Stage("ingest_s", ["ingest", os.path.join(raw, "log.tsv"), "--schema",
                              os.path.join(raw, "schema.txt"), "--out", data] + sets)


def _models(data, out, splits, sets, metric_market, metric_price):
    stages = []
    for split in splits:
        stages.append(Stage(metric_market, [
            "train-market", data, "--split", split,
            "--out", os.path.join(out, f"market_{split}.ckpt")] + sets))
        stages.append(Stage(metric_price, [
            "train-price", data, "--split", split,
            "--out", os.path.join(out, f"price_{split}.ckpt")] + sets))
    return stages


def _agents(setup_dir, out, sets, metrics):
    env = ["--data", os.path.join(setup_dir, "data"),
           "--market", os.path.join(setup_dir, "market_train.ckpt"),
           "--price", os.path.join(setup_dir, "price_train.ckpt")]
    ddqn_m, fdqi_m, rlb_m, linbid_m = metrics
    return [
        Stage(ddqn_m, ["train-agent", *env, "--agent", "exddqn",
                       "--out", os.path.join(out, "exddqn.ckpt")] + sets),
        Stage(fdqi_m, ["train-agent", *env, "--agent", "fdqi",
                       "--out", os.path.join(out, "fdqi.ckpt")] + sets),
        Stage(rlb_m, ["solve-rlb", *env[:2], "--out", os.path.join(out, "rlb.ckpt")]
              + sets),
        Stage(linbid_m, ["tune-linbid", *env,
                         "--out", os.path.join(out, "linbid.ckpt")] + sets),
    ]


def _market_setup(raw, d, seed, splits):
    sets = _sets(f"seed={seed}", *WGAN, *FIT)
    data = os.path.join(d, "data")
    return [_ingest(raw, data, sets)] + _models(data, d, splits, sets, "setup", "setup")


def learn_market_setup(raw, d, seed):
    return []


def learn_market_pass(setup_dir, out, seed):
    sets = _sets(f"seed={seed}", *WGAN, *FIT)
    data = os.path.join(out, "data")
    return ([_ingest(os.path.join(setup_dir, "raw"), data, sets)]
            + _models(data, out, ("train", "test"), sets, "market_train_s", "action_fit_s")
            + [Stage("action_fit_s", ["train-click", data, "--split", "train", "--out",
                                      os.path.join(out, "click_train.ckpt")] + sets)])


def train_agents_setup(raw, d, seed):
    return _market_setup(raw, d, seed, ("train",))


def train_agents_pass(setup_dir, out, seed):
    return _agents(setup_dir, out, _sets(f"seed={seed}", *AGENTS),
                   ("ddqn_train_s", "fdqi_train_s", "rlb_solve_s", "linbid_tune_s"))


def evaluate_setup(raw, d, seed):
    stages = _market_setup(raw, d, seed, ("train", "test"))
    return stages + _agents(d, d, _sets(f"seed={seed}", *SETUP_AGENTS),
                            ("setup",) * 4)


def evaluate_pass(setup_dir, out, seed):
    """One `rtb evaluate` per agent, not one for all four: a shorter stage
    is more often timed whole in a quiet spell of a shared host (see
    README.md, "Bounds and noise"). Loading costs about the same."""
    sets = _sets(f"seed={seed}", *EVAL)
    data = os.path.join(setup_dir, "data")
    model = os.path.join(setup_dir, "market_test.ckpt")
    return [
        Stage("eval_s", ["evaluate", "--data", data, "--market", model,
                         "--price", os.path.join(setup_dir, "price_test.ckpt"),
                         "--agents", os.path.join(setup_dir, f"{a}.ckpt"),
                         "--out", os.path.join(out, f"report-{a}.tsv")] + sets)
        for a in EVAL_AGENTS
    ] + [Stage("mmd_s", ["mmd", "--data", data, "--model", model,
                         "--out", os.path.join(out, "mmd.tsv")] + sets)]


@dataclass
class Workload:
    name: str
    why: str
    tagged: bool                  # multi-hot user tags in the raw log
    setup: Callable               # (raw dir, set-up dir, seed) -> [Stage]
    timed: Callable               # (set-up dir, pass dir, seed) -> [Stage]


WORKLOADS = {w.name: w for w in (
    Workload("learn-market",
             "WGAN-GP with Adam, the censored and logistic fits and ragged "
             "PackedRequests on a tagged log; never builds SimEnv",
             True, learn_market_setup, learn_market_pass),
    Workload("train-agents",
             "env steps with replay writes and small-batch Q updates, the DP "
             "kernel and linbid tuning on a one-hot log",
             False, train_agents_setup, train_agents_pass),
    Workload("evaluate",
             "read-only simulation: single-row generator sampling, Q inference "
             "and rlb lookups, plus MMD; no backward pass, no fitting",
             False, evaluate_setup, evaluate_pass),
)}
