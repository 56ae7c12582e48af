"""Command-line entry point.

Subcommands cover the whole pipeline: synthesize or ingest logs, learn
the market models per split, train/tune the agents on the train
environment, then evaluate everything in the test environment.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical failure.
"""

import argparse
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .agents import (
    ActionGrid,
    DdqnConfig,
    FdqiConfig,
    GreedyQAgent,
    LinBidAgent,
    RlbAgent,
    fdqi_build_transitions,
    fdqi_train,
    linbid_tune,
    rlb_dp_solve,
    train_ddqn,
)
from .agents.linbid import default_base_grid
from .config import KEYS, Config, config_lines, effective_config
from .data import (
    DatasetStats,
    FeatureDict,
    PriceHistogram,
    SampleSet,
    build_feature_dictionary,
    dataset_statistics,
    load_schema,
    parse_log,
    split_day_indices,
)
from .env import EnvMeta, EnvParts, episode_budget, make_env_factory
from .errors import ConfigError, DataError, NumericalError
from .evaluate import budget_sweep, write_report
from .market_action import FitConfig, average_ctr, train_click_model, train_price_model
from .market_state import (
    EmpiricalSampler,
    GeneratorSampler,
    UniformSampler,
    WganConfig,
    train_market_state_model,
)
from .mmd import mmd_benchmark
from .rng import stream
from .synth import generate_synthetic_market, load_synth_spec, write_synthetic_log

SPLITS = ("train", "val", "test")


def _cfg(args) -> Config:
    return effective_config(args.profile, getattr(args, "config", None),
                            getattr(args, "set", None))


def _load_split(data_dir, split) -> SampleSet:
    """One split's samples, whose width must be that of the data's dict.txt."""
    width = FeatureDict.load(os.path.join(data_dir, "dict.txt")).width
    return SampleSet.load(os.path.join(data_dir, f"{split}.samples"), width)


def _load_stats(data_dir, split) -> DatasetStats:
    hist = PriceHistogram.load(os.path.join(data_dir, f"hist_{split}.tsv"))
    return DatasetStats.load(os.path.join(data_dir, f"stats_{split}.txt"), hist)


def cmd_synth(args):
    spec, n, seed = load_synth_spec(args.spec)
    if args.seed is not None:
        seed = args.seed
    market = generate_synthetic_market(spec, n, stream(seed, "synth"))
    os.makedirs(args.out, exist_ok=True)
    write_synthetic_log(market, os.path.join(args.out, "log.tsv"),
                        os.path.join(args.out, "schema.txt"))
    with open(os.path.join(args.out, "truth.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"price_mu_b = {market.price.mu_b!r}\n")
        fh.write(f"price_logsig_b = {market.price.logsig_b!r}\n")
        fh.write(f"click_b = {market.click.b!r}\n")
        fh.write(f"n = {n}\nseed = {seed}\n")
    print(f"wrote {n} synthetic records to {args.out}")
    return 0


def cmd_ingest(args):
    cfg = _cfg(args)
    schema = load_schema(args.schema)
    log, skipped = parse_log(args.log, schema)
    if not len(log):
        raise DataError(f"no parseable records in {args.log}")
    fdict = build_feature_dictionary(log, cfg["min_count"])
    all_samples = SampleSet.from_records(log, fdict)
    parts = split_day_indices(all_samples.timestamps, (0.60, 0.15, 0.25))
    os.makedirs(args.out, exist_ok=True)
    fdict.save(os.path.join(args.out, "dict.txt"))
    for split, idx in zip(SPLITS, parts):
        sub = all_samples.subset(np.sort(idx))
        sub.save(os.path.join(args.out, f"{split}.samples"))
        stats = dataset_statistics(sub)
        stats.save(os.path.join(args.out, f"stats_{split}.txt"))
        stats.histogram.save(os.path.join(args.out, f"hist_{split}.tsv"))
        print(f"{split}: n={stats.n} imp={stats.impression_rate:.3f} "
              f"cpm={stats.cpm:.1f}")
    if skipped:
        print(f"skipped {skipped} malformed lines")
    print(f"dictionary width {fdict.width} over {len(fdict.fields)} fields")
    return 0


def cmd_stats(args):
    for split in SPLITS:
        stats = _load_stats(args.data, split)
        print(f"{split}: n={stats.n} d={stats.d} imp={stats.impression_rate:.3f} "
              f"cpm={stats.cpm:.2f} w_max={stats.w_max:.0f}")
    return 0


def _wgan_config(cfg) -> WganConfig:
    return WganConfig(
        gp_lambda=cfg["wgan_lambda"],
        critic_steps=cfg["wgan_critic_steps"],
        batch_size=cfg["wgan_batch"],
        tau=cfg["wgan_tau"],
        lr=cfg["wgan_lr"],
        max_iters=cfg["wgan_iters"],
        z_dim=cfg["wgan_z_dim"],
        gen_hidden=cfg["wgan_gen_hidden"],
        critic_hidden=cfg["wgan_critic_hidden"],
    )


def cmd_train_market(args):
    cfg = _cfg(args)
    fdict = FeatureDict.load(os.path.join(args.data, "dict.txt"))
    samples = _load_split(args.data, args.split)
    val = _load_split(args.data, "val")
    wcfg = _wgan_config(cfg)
    rng = stream(cfg["seed"], "wgan", args.split)
    gen, critic, diag = train_market_state_model(
        samples.requests, val.requests, fdict, wcfg, rng
    )
    ckpt.save_market_state(args.out, gen, critic, args.split,
                           ckpt.hash_requests(samples.requests), cfg.text,
                           diag.iterations)
    tail = diag.gaps[-1] if diag.gaps else float("nan")
    print(f"market-state model: {diag.iterations} iterations "
          f"(early stop: {diag.stopped_early}), final val gap {tail:.4f}")
    return 0


def _fit_config(cfg) -> FitConfig:
    return FitConfig(
        lr_grid=cfg["fit_lr_grid"],
        l2_grid=cfg["fit_l2_grid"],
        batch_size=cfg["fit_batch"],
        max_epochs=cfg["fit_epochs"],
    )


def cmd_train_price(args):
    cfg = _cfg(args)
    samples = _load_split(args.data, args.split)
    val = _load_split(args.data, "val")
    model, info = train_price_model(samples, val, _fit_config(cfg))
    ckpt.save_price_model(args.out, model, args.split,
                          ckpt.hash_requests(samples.requests), cfg.text)
    print(f"price model: val nll {info['val_nll']:.4f} (l2 {info['l2']}, "
          f"{info['passes']} passes, converged: {info['converged']})")
    return 0


def cmd_train_click(args):
    cfg = _cfg(args)
    samples = _load_split(args.data, args.split)
    val = _load_split(args.data, "val")
    model, info = train_click_model(samples, val, stream(cfg["seed"], "click", args.split),
                                    _fit_config(cfg))
    ckpt.save_click_model(args.out, model, args.split,
                          ckpt.hash_requests(samples.requests), cfg.text)
    print(f"click model: {info}")
    return 0


def _sampler_tau(manifest, path) -> float:
    """The Gumbel-softmax temperature a market-state checkpoint was trained
    at: the wgan_tau of its config echo, parsed by the config table's domain."""
    try:
        return KEYS["wgan_tau"][1](manifest["config"]["wgan_tau"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: no valid wgan_tau in the config echo ({exc})") from exc


def _action_grid(train_stats) -> ActionGrid:
    """The bid grid over the train split's price range."""
    return ActionGrid.from_max_price(max(train_stats.w_max, 1.0))


def _env_parts(args, cfg) -> tuple:
    """Wire EnvParts from checkpoints; returns (parts, train stats)."""
    gen, _, m_manifest = ckpt.load_market_state(args.market)
    price, p_manifest = ckpt.load_price_model(args.price)
    click, c_manifest = (None, None)
    if getattr(args, "click", None):
        click, c_manifest = ckpt.load_click_model(args.click)
    train_stats = _load_stats(args.data, "train")
    tau = _sampler_tau(m_manifest, args.market)

    def sampler_factory(rng):
        return GeneratorSampler(gen, tau, rng)

    meta = EnvMeta(cpm_ref=train_stats.cpm, t0_ref=cfg["t0"])
    splits = {"market": m_manifest["split"], "price": p_manifest["split"]}
    if c_manifest:
        splits["click"] = c_manifest["split"]
    return EnvParts(sampler_factory, price, click, meta, splits), train_stats


def cmd_train_agent(args):
    cfg = _cfg(args)
    parts, train_stats = _env_parts(args, cfg)
    grid = _action_grid(train_stats)
    utility = cfg["utility"]
    seed = cfg["seed"]
    if args.agent == "exddqn":
        factory = make_env_factory(parts, utility, seed, "train")
        dcfg = DdqnConfig(
            total_steps=cfg["ddqn_total_steps"],
            workers=cfg["ddqn_workers"],
            batch_size=cfg["ddqn_batch"],
            lr=cfg["ddqn_lr"],
            warmup_steps=cfg["ddqn_warmup"],
            target_sync=cfg["ddqn_target_sync"],
            eps_scale=cfg["ddqn_eps_scale"],
            t0=cfg["t0"],
            n_actions=len(grid),
        )
        qnet, diag = train_ddqn(factory, grid, dcfg, stream(seed, "ddqn"),
                                price_model=parts.price_model)
        ckpt.save_agent(args.out, "exddqn", GreedyQAgent(qnet, grid), cfg.text)
        mean_r = np.mean(diag.episode_rewards[-20:]) if diag.episode_rewards else 0
        print(f"exddqn: {diag.steps} steps, {diag.updates} updates, "
              f"recent episode reward {mean_r:.1f}")
    elif args.agent == "fdqi":
        samples = _load_split(args.data, "train")
        trs = fdqi_build_transitions(samples, grid, cfg["t0"],
                                     parts.meta.cpm_ref, cfg["utility"])
        fcfg = FdqiConfig(outer_iters=cfg["fdqi_outer"],
                          n_actions=len(grid))
        qnet, diag = fdqi_train(trs, samples.width, fcfg, stream(seed, "fdqi"),
                                price_model=parts.price_model)
        ckpt.save_agent(args.out, "fdqi", GreedyQAgent(qnet, grid), cfg.text)
        print(f"fdqi: {len(trs['reward'])} transitions, "
              f"{diag.iterations} fitted iterations")
    else:
        raise ConfigError(f"unknown agent {args.agent!r}")
    return 0


def cmd_tune_linbid(args):
    cfg = _cfg(args)
    parts, train_stats = _env_parts(args, cfg)
    utility = cfg["utility"]
    seed = cfg["seed"]
    factory = make_env_factory(parts, utility, seed, "train")
    grid = default_base_grid(train_stats.histogram)
    t0 = cfg["t0"]
    b0_eval = episode_budget(1.0, train_stats.cpm, t0)
    click_model, avg = parts.click_model, None
    # without --click the environment refuses click utility (a config error)
    if utility == "click" and click_model is not None:
        avg = average_ctr(click_model, _load_split(args.data, "train").requests)
    best, means = linbid_tune(factory, grid, cfg["linbid_episodes"],
                              b0_eval, t0, utility, click_model, avg)
    ckpt.save_agent(args.out, "linbid", LinBidAgent(best, utility, click_model, avg), cfg.text)
    print(f"linbid base bid {best:.2f} (grid of {len(grid)})")
    return 0


def cmd_solve_rlb(args):
    cfg = _cfg(args)
    train_stats = _load_stats(args.data, "train")
    m = train_stats.histogram
    if m.empty:
        raise DataError("cannot solve the bidder against an empty price histogram")
    horizon = cfg["rlb_horizon"]
    alpha_max = max(cfg["alphas"])
    max_budget = int(np.ceil(episode_budget(alpha_max, train_stats.cpm, horizon))) * 2
    grid = _action_grid(train_stats)
    tables = rlb_dp_solve(m, horizon, max_budget, grid)
    ckpt.save_agent(args.out, "rlb", RlbAgent(tables, grid), cfg.text,
                    histogram_hash=ckpt.hash_histogram(m))
    print(f"rlb tables solved: horizon {horizon}, budget grid {max_budget}")
    return 0


def cmd_evaluate(args):
    cfg = _cfg(args)
    parts, _ = _env_parts(args, cfg)
    utility = cfg["utility"]
    seed = cfg["seed"]
    factory = make_env_factory(parts, utility, seed, "test")
    test_stats = _load_stats(args.data, "test")
    agents = {}
    for path in args.agents:
        agent, manifest = ckpt.load_agent(path)
        name = manifest["agent_type"]
        while name in agents:
            name += "+"
        agents[name] = agent
    table = budget_sweep(
        agents, factory, test_stats.cpm, cfg["t0"],
        alphas=cfg["alphas"], repeats=cfg["repeats"],
        config_echo=config_lines(cfg.text),
    )
    write_report(table, args.out, args.format)
    print(f"wrote {len(table.rows)} result rows to {args.out}")
    return 0


def cmd_mmd(args):
    cfg = _cfg(args)
    fdict = FeatureDict.load(os.path.join(args.data, "dict.txt"))
    test = _load_split(args.data, "test")
    gen, _, m_manifest = ckpt.load_market_state(args.model)
    seed = cfg["seed"]
    samplers = {
        "test": EmpiricalSampler(test.requests, stream(seed, "mmd", "test")),
        "model": GeneratorSampler(gen, _sampler_tau(m_manifest, args.model),
                                  stream(seed, "mmd", "model")),
        "uniform": UniformSampler(fdict, stream(seed, "mmd", "uniform")),
    }
    rows = mmd_benchmark(test.requests, samplers, n=cfg["mmd_n"],
                         repeats=cfg["mmd_repeats"], sigma=cfg["mmd_sigma"],
                         rng=stream(seed, "mmd", "ref"))
    lines = [f"{name}\t{mean:.3f}\t{std:.3f}" for name, (mean, std) in rows.items()]
    print("sampler\tsqrt_n_mmd\tstd")
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("sampler\tsqrt_n_mmd\tstd\n")
            fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rtb", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--profile", default="desk", choices=("desk", "paper"))
        sp.add_argument("--config", default=None, help="key=value config file")
        sp.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override one config key")

    sp = sub.add_parser("synth", help="generate a synthetic market log")
    sp.add_argument("spec")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(fn=cmd_synth, profile="desk")

    sp = sub.add_parser("ingest", help="parse, featurize, and split a log")
    sp.add_argument("log")
    sp.add_argument("--schema", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_ingest)

    sp = sub.add_parser("stats", help="print per-split dataset statistics")
    sp.add_argument("data")
    sp.set_defaults(fn=cmd_stats, profile="desk")

    for name, fn in (("train-market", cmd_train_market),
                     ("train-price", cmd_train_price),
                     ("train-click", cmd_train_click)):
        sp = sub.add_parser(name, help=f"{name} on one data split")
        sp.add_argument("data")
        sp.add_argument("--split", required=True, choices=("train", "test"))
        sp.add_argument("--out", required=True)
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("train-agent", help="train exddqn or fdqi")
    sp.add_argument("--data", required=True)
    sp.add_argument("--market", required=True)
    sp.add_argument("--price", required=True)
    sp.add_argument("--click", default=None)
    sp.add_argument("--agent", required=True, choices=("exddqn", "fdqi"))
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_train_agent)

    sp = sub.add_parser("tune-linbid", help="tune the linear bidder base bid")
    sp.add_argument("--data", required=True)
    sp.add_argument("--market", required=True)
    sp.add_argument("--price", required=True)
    sp.add_argument("--click", default=None)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_tune_linbid)

    sp = sub.add_parser("solve-rlb", help="solve the DP bidder tables")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_solve_rlb)

    sp = sub.add_parser("evaluate", help="budget sweep in the test environment")
    sp.add_argument("--data", required=True)
    sp.add_argument("--market", required=True)
    sp.add_argument("--price", required=True)
    sp.add_argument("--click", default=None)
    sp.add_argument("--agents", nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="tsv", choices=("tsv", "text"))
    common(sp)
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("mmd", help="market-model sample quality benchmark")
    sp.add_argument("--data", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_mmd)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
