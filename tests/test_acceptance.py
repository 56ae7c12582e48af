"""Acceptance suite: one test per criterion, each printing a PASS line
and enforcing its stated tolerance and runtime budget.

Run `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
The dataset-gated check (criterion 10) runs only when
RTBLAB_IPINYOU_2997 points at a directory holding train.tsv / test.tsv
in this package's log schema.
"""

import itertools
import os
import time

import numpy as np
import pytest

from rtblab import checkpoint as ckpt
from rtblab.agents import (
    ActionGrid,
    DdqnConfig,
    GreedyQAgent,
    epsilon_schedule,
    rlb_dp_solve,
    train_ddqn,
)
from rtblab.autodiff import Mlp, DenseLayer, gradient_penalty, mlp_backward, mlp_forward
from rtblab.cli import main as cli_main
from rtblab.data import (
    PackedRequests,
    PriceHistogram,
    SampleSet,
    build_feature_dictionary,
    dataset_statistics,
    kl_divergence,
    parse_log,
)
from rtblab.env import EnvMeta, SimEnv
from rtblab.evaluate import evaluate_policy
from rtblab.market_action import FitConfig, PriceModel, train_price_model
from rtblab.market_state import (
    EmpiricalSampler,
    GeneratorSampler,
    UniformSampler,
    WganConfig,
    train_market_state_model,
)
from rtblab.mmd import mmd_benchmark
from rtblab.optim import make_mlp
from rtblab.rng import stream
from rtblab.synth import SynthSpec, generate_synthetic_market


def report(n, name, elapsed, budget):
    print(f"\ncriterion {n:02d} ({name}): PASS in {elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget


def scaled_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


# ---------------------------------------------------------------- criterion 1

def random_net(rng, scalar_out=False):
    n_layers = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 33)) for _ in range(n_layers + 1)]
    if scalar_out:
        dims[-1] = 1
    acts = [("relu", "tanh")[int(rng.integers(2))] for _ in range(n_layers - 1)]
    acts.append("identity")
    net = make_mlp(dims, acts, rng)
    for lay in net.layers:
        lay.b[:] = rng.normal(0, 0.2, size=lay.b.shape)
    return net


def well_separated_input(net, rng, rows, margin=1e-3):
    """Inputs in [-3, 3] whose pre-activations clear the rectifier kinks,
    so central differences stay on one smooth piece."""
    for _ in range(200):
        x = rng.uniform(-3, 3, size=(rows, net.in_dim))
        _, trace = mlp_forward(net, x, record=True)
        if all(np.min(np.abs(z)) > margin for z in trace.zs):
            return x
    raise AssertionError("could not find a kink-free test point")


def fd_grads(f, arrays, h):
    out = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        out.append(g)
    return out


def test_criterion_01_autodiff_soundness():
    start = time.perf_counter()
    rng = stream(1001, "autodiff")
    worst_plain, worst_nested = 0.0, 0.0
    for case in range(200):
        net = random_net(rng)
        x = well_separated_input(net, rng, rows=2)
        seed = rng.normal(size=(2, net.out_dim))

        def loss():
            return float(np.sum(seed * mlp_forward(net, x)))

        _, trace = mlp_forward(net, x, record=True)
        grads, _ = mlp_backward(trace, seed)
        fd = fd_grads(loss, [net.params], h=1e-5)[0]
        err = float(np.max(scaled_err(grads, fd)))
        worst_plain = max(worst_plain, err)
        assert err < 1e-6

        critic = random_net(rng, scalar_out=True)
        for _ in range(50):
            x_hat = well_separated_input(critic, rng, rows=2)
            _, trace_c = mlp_forward(critic, x_hat, record=True)
            _, g_in = mlp_backward(trace_c, np.ones((2, 1)))
            if np.min(np.linalg.norm(g_in, axis=1)) > 0.05:
                break

        def penalty():
            p, _, _ = gradient_penalty(critic, x_hat)
            return p

        _, pgrads, _ = gradient_penalty(critic, x_hat)
        fd_p = fd_grads(penalty, [critic.params], h=1e-5)[0]
        errn = float(np.max(scaled_err(pgrads, fd_p)))
        worst_nested = max(worst_nested, errn)
        assert errn < 1e-4
    print(f"\n  worst plain err {worst_plain:.2e}, worst nested err {worst_nested:.2e}")
    report(1, "autodiff soundness", time.perf_counter() - start, 60)


# ---------------------------------------------------------------- criterion 2

def oracle_value(probs, grid, t, b, memo):
    if t == 0:
        return 0.0
    key = (t, b)
    if key in memo:
        return memo[key]
    best = -np.inf
    for a in grid:
        top = min(int(np.ceil(a)) - 1, probs.size - 1, b)
        val, mass = 0.0, 0.0
        for d in range(0, top + 1):
            if probs[d] > 0:
                val += probs[d] * (1.0 + oracle_value(probs, grid, t - 1, b - d, memo))
                mass += probs[d]
        best = max(best, val + (1.0 - mass) * oracle_value(probs, grid, t - 1, b, memo))
    memo[key] = best
    return best


def test_criterion_02_dp_optimality_oracle():
    start = time.perf_counter()
    rng = stream(1002, "dp")
    instances = 0
    worst = 0.0
    # three random histograms and grids per (T, B, d_max, k) cell: 504 instances
    for T, B, d_max in itertools.product(range(1, 5), range(0, 7), range(1, 4)):
        for k, _ in itertools.product((2, 5), range(3)):
            probs = rng.dirichlet(np.ones(d_max + 1))
            grid = np.unique(np.sort(rng.uniform(0.1, d_max + 1.5, size=k)))
            tables = rlb_dp_solve(PriceHistogram(probs), T, B, ActionGrid(grid))
            want = oracle_value(probs, grid.tolist(), T, B, {})
            diff = abs(tables.value[T, B] - want)
            worst = max(worst, diff)
            assert diff < 1e-9
            instances += 1
    assert instances >= 500
    print(f"\n  {instances} instances, worst diff {worst:.2e}")
    report(2, "dp optimality oracle", time.perf_counter() - start, 30)


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_censored_regression_recovery():
    start = time.perf_counter()
    true_mu = np.array([110.0, 85.0, 65.0])
    true_sigma = 20.0
    spec = SynthSpec(
        field_dims=(3,),
        mixture_weights=(1.0,),
        mixture_probs=(((0.34, 0.33, 0.33),),),
        price_mu=(((25.0, 0.0, -20.0),), 85.0),
        price_logsig=(((0.0, 0.0, 0.0),), float(np.log(true_sigma))),
        logging_bid=(75.0, 135.0),
    )
    cfg = FitConfig(lr_grid=(0.3, 0.03), l2_grid=(1e-6,), max_epochs=300, patience=30)
    for seed in range(5):
        market = generate_synthetic_market(spec, 12_000, stream(1003, "tobit", seed))
        idx = np.arange(12_000)
        train = market.samples.subset(idx[:10_000])
        val = market.samples.subset(idx[10_000:])
        censored = 1.0 - float(train.wins.mean())
        assert 0.2 < censored < 0.4  # the stated ~30% censoring regime

        model, _ = train_price_model(train, val, cfg)
        probe = PackedRequests(np.arange(3)[:, None], market.fdict.width)
        fit_mu = model.mu(probe)
        fit_sigma = model.sigma(probe)
        # per-category mean pins slope+intercept up to the one-hot gauge
        assert np.all(np.abs(fit_mu - true_mu) / true_mu < 0.05), (seed, fit_mu)
        assert np.all(np.abs(fit_sigma - true_sigma) / true_sigma < 0.05), (
            seed, fit_sigma)
    report(3, "censored-regression recovery", time.perf_counter() - start, 120)


# ---------------------------------------------------------------- criterion 4

TOY_MIXTURE = SynthSpec(
    field_dims=(3, 4),
    mixture_weights=(0.5, 0.5),
    mixture_probs=(
        ((0.94, 0.04, 0.02), (0.9, 0.034, 0.033, 0.033)),
        ((0.02, 0.04, 0.94), (0.034, 0.033, 0.033, 0.9)),
    ),
    price_mu=(((0.0,) * 3, (0.0,) * 4), 10.0),
    price_logsig=(((0.0,) * 3, (0.0,) * 4), 0.0),
    logging_bid=(20.0, 20.0),
)

WGAN_TOY_CFG = WganConfig(
    batch_size=256, lr=1e-4, z_dim=16, gen_hidden=(64, 64, 32),
    critic_hidden=(64, 64, 32), max_iters=4000,
)


@pytest.fixture(scope="module")
def trained_market_model():
    market = generate_synthetic_market(TOY_MIXTURE, 8000, stream(200, "mkt"))
    reqs = market.samples.requests
    train, val, held = (reqs.rows(np.arange(lo, hi))
                        for lo, hi in ((0, 4000), (4000, 5000), (5000, len(reqs))))
    t0 = time.perf_counter()
    gen, critic, diag = train_market_state_model(
        train, val, market.fdict, WGAN_TOY_CFG, stream(200, "train")
    )
    return {
        "market": market, "held": held, "gen": gen, "diag": diag,
        "train_time": time.perf_counter() - t0,
    }


def test_criterion_04_market_state_model_quality(trained_market_model):
    start = time.perf_counter()
    tm = trained_market_model
    assert tm["diag"].iterations <= 4000
    samplers = {
        "test": EmpiricalSampler(tm["held"], stream(201, "t")),
        "model": GeneratorSampler(tm["gen"], WGAN_TOY_CFG.tau, stream(201, "m")),
        "uniform": UniformSampler(tm["market"].fdict, stream(201, "u")),
    }
    rows = mmd_benchmark(tm["held"], samplers, n=200, repeats=100,
                         rng=stream(201, "ref"))
    test_v, model_v, unif_v = (rows[k][0] for k in ("test", "model", "uniform"))
    print(f"\n  sqrt(n)*MMD: test {test_v:.3f}, model {model_v:.3f}, "
          f"uniform {unif_v:.3f} ({tm['diag'].iterations} iterations)")
    assert model_v <= 2.0 * test_v
    assert model_v <= 0.2 * unif_v
    elapsed = tm["train_time"] + (time.perf_counter() - start)
    report(4, "market-state model quality", elapsed, 600)


# ---------------------------------------------------------------- criterion 5

@pytest.fixture(scope="module")
def toy_bidding_world():
    """Two request types with deterministic prices 3 and 7; T0 = 100."""
    width = 2
    reqs = PackedRequests.from_rows([[0], [1]], width)
    price = PriceModel(np.array([3.0, 7.0]), 0.0, np.zeros(width), -20.0)
    meta = EnvMeta(cpm_ref=3000.0, t0_ref=100)

    def factory(label):
        return SimEnv(EmpiricalSampler(reqs, stream(300, label, "x")), price,
                      None, "impression", meta, stream(300, label, "m"))

    grid = ActionGrid.from_max_price(7.0, k=20)
    probs = np.zeros(8)
    probs[3] = probs[7] = 0.5
    tables = rlb_dp_solve(PriceHistogram(probs), 100, 300, grid)

    cfg = DdqnConfig(total_steps=40_000, workers=4, batch_size=32, lr=1e-3,
                     warmup_steps=2000, target_sync=500, t0=100,
                     eps_scale=8000.0, n_actions=20)
    t0 = time.perf_counter()
    qnet, diag = train_ddqn(factory, grid, cfg, stream(300, "train"),
                            price_model=price)
    return {
        "factory": factory, "grid": grid, "qnet": qnet,
        "dp_value": float(tables.value[100, 300]),
        "train_time": time.perf_counter() - t0,
    }


def test_criterion_05_exddqn_near_optimality(toy_bidding_world):
    start = time.perf_counter()
    w = toy_bidding_world
    agent = GreedyQAgent(w["qnet"], w["grid"])
    res = evaluate_policy(w["factory"], agent, 300.0, 100, repeats=100,
                          label="accept5")
    print(f"\n  agent mean {res.mean:.2f} vs DP optimal {w['dp_value']:.2f} "
          f"(ratio {res.mean / w['dp_value']:.3f})")
    assert res.mean >= 0.95 * w["dp_value"]
    elapsed = w["train_time"] + (time.perf_counter() - start)
    report(5, "exddqn near-optimality", elapsed, 600)


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_environment_invariants(toy_bidding_world):
    start = time.perf_counter()
    factory = toy_bidding_world["factory"]
    rng = stream(1006, "episodes")
    for ep in range(10_000):
        t0 = int(rng.integers(3, 12))
        b0 = float(rng.uniform(0, 40))
        env = factory(f"inv-{ep}")
        env.reset(b0, t0)
        steps = 0
        while not env.done:
            out = env.step(float(rng.uniform(0, 9)))
            steps += 1
            assert env.state.budget >= 0.0
            assert out.reward <= int(out.won) <= 1
        assert steps == t0  # fixed episode length
        assert env.budget_conservation_error() <= 1e-9
    report(6, "environment invariants", time.perf_counter() - start, 60)


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_budget_monotonicity(toy_bidding_world):
    start = time.perf_counter()
    w = toy_bidding_world
    agent = GreedyQAgent(w["qnet"], w["grid"])
    means = []
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        b0 = alpha * 3000.0 * 100 / 1000.0
        # identical episode labels -> identical price tapes across alphas
        res = evaluate_policy(w["factory"], agent, b0, 100, repeats=30,
                              label="accept7")
        means.append(res.mean)
    print(f"\n  mean rewards over alpha sweep: {[round(m, 2) for m in means]}")
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))
    report(7, "budget monotonicity", time.perf_counter() - start, 120)


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_exact_formula_checks():
    start = time.perf_counter()
    assert abs(epsilon_schedule(0) - 1.0) < 1e-6
    assert abs(epsilon_schedule(500_000) - (0.2 + 0.8 * np.exp(-1.0))) < 1e-6
    assert abs(epsilon_schedule(10**9) - 0.2) < 1e-6
    alpha, cpm_te, t0 = 1.0, 20.7, 100_000
    assert alpha * cpm_te * t0 / 1000.0 == pytest.approx(2070.0, abs=1e-9)
    report(8, "exact formula checks", time.perf_counter() - start, 10)


# ---------------------------------------------------------------- criterion 9

PIPE_SPEC = """
fields = 3,4
mixture_weights = 0.5,0.5
comp0_f0 = 0.8,0.15,0.05
comp0_f1 = 0.7,0.1,0.1,0.1
comp1_f0 = 0.05,0.15,0.8
comp1_f1 = 0.1,0.1,0.1,0.7
price_mu_f0 = 15,0,-10
price_mu_intercept = 60
price_logsig_intercept = 2.7
logging_bid = 40,110
n = 3000
days = 5
seed = 3
"""

PIPE_SETS = ["--set", "t0=40", "--set", "repeats=3", "--set", "fit_epochs=30",
             "--set", "wgan_iters=100", "--set", "wgan_batch=64",
             "--set", "wgan_z_dim=8", "--set", "wgan_gen_hidden=16",
             "--set", "wgan_critic_hidden=16", "--set", "wgan_lr=1e-3",
             "--set", "alphas=0.5,1,2", "--set", "linbid_episodes=2"]


def run_mini_pipeline(root):
    spec = root / "spec.txt"
    spec.write_text(PIPE_SPEC)
    assert cli_main(["synth", str(spec), "--out", str(root / "raw")]) == 0
    assert cli_main(["ingest", str(root / "raw" / "log.tsv"),
                     "--schema", str(root / "raw" / "schema.txt"),
                     "--out", str(root / "data")]) == 0
    d = str(root / "data")
    for split in ("train", "test"):
        assert cli_main(["train-market", d, "--split", split,
                         "--out", str(root / f"market_{split}.ckpt")] + PIPE_SETS) == 0
        assert cli_main(["train-price", d, "--split", split,
                         "--out", str(root / f"price_{split}.ckpt")] + PIPE_SETS) == 0
    assert cli_main(["tune-linbid", "--data", d,
                     "--market", str(root / "market_train.ckpt"),
                     "--price", str(root / "price_train.ckpt"),
                     "--out", str(root / "linbid.ckpt")] + PIPE_SETS) == 0
    assert cli_main(["evaluate", "--data", d,
                     "--market", str(root / "market_test.ckpt"),
                     "--price", str(root / "price_test.ckpt"),
                     "--agents", str(root / "linbid.ckpt"),
                     "--out", str(root / "report.tsv")] + PIPE_SETS) == 0


def test_criterion_09_determinism_and_persistence(tmp_path):
    start = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run_mini_pipeline(a)
    run_mini_pipeline(b)
    for name in ("report.tsv", "market_test.ckpt", "price_test.ckpt",
                 "linbid.ckpt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    # checkpoint round trip is bit-exact
    manifest, arrays = ckpt.load_checkpoint(a / "market_test.ckpt")
    ckpt.save_checkpoint(a / "resaved.ckpt", manifest, arrays)
    assert (a / "resaved.ckpt").read_bytes() == (a / "market_test.ckpt").read_bytes()
    report(9, "determinism and persistence", time.perf_counter() - start, 300)


# --------------------------------------------------------------- criterion 10

IPINYOU_DIR = os.environ.get("RTBLAB_IPINYOU_2997", "")


@pytest.mark.skipif(not IPINYOU_DIR, reason="set RTBLAB_IPINYOU_2997 to run")
def test_criterion_10_ipinyou_dataset_gated():
    start = time.perf_counter()
    sets = {}
    for split in ("train", "test"):
        records, _ = parse_log(os.path.join(IPINYOU_DIR, f"{split}.tsv"))
        fdict = build_feature_dictionary(records, min_count=500)
        sets[split] = dataset_statistics(SampleSet.from_records(records, fdict))
    want = {"train": (0.359, 21.4), "test": (0.301, 19.0)}
    for split, (imp, cpm) in want.items():
        stats = sets[split]
        assert abs(stats.impression_rate - imp) / imp < 0.01
        assert abs(stats.cpm - cpm) / cpm < 0.01
    kl = kl_divergence(sets["train"].histogram, sets["test"].histogram)
    assert abs(kl - 0.012) <= 0.005
    report(10, "ipinyou dataset spot check", time.perf_counter() - start, 600)
