"""Market action models: censored-Gaussian price regression and a
logistic click model.

The price of an auction is observed only on wins; on losses the logged
bid is a lower bound. The price model is N(mu(x), sigma(x)^2) with
mu and log-sigma linear in the one-hot request, fit by maximizing the
penalised censored likelihood (Tobit): exact Gaussian terms on wins,
survival terms on losses, minimised as an NLL by deterministic
full-batch L-BFGS-B. Clicks are observed only on impressions and fit by
logistic regression with minibatch Adam and early stopping.

scipy is imported inside the two functions of the price fit that use it,
censored_nll (log_ndtr) and _fit_price (L-BFGS-B), so a process that
fits no price model never loads it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .data import PackedRequests, SampleSet
from .errors import DataError, NumericalError
from .optim import AdamState, adam_step


# log of the standard normal density's constant, the value scipy.stats.norm
# subtracts in logpdf (so the hazard below matches it bit for bit)
LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


@dataclass
class PriceModel:
    """Two linear heads over the request vector: mu and log-sigma."""

    mu_w: np.ndarray
    mu_b: float
    logsig_w: np.ndarray
    logsig_b: float

    def mu(self, packed: PackedRequests) -> np.ndarray:
        return packed.dot(self.mu_w) + self.mu_b

    def sigma(self, packed: PackedRequests) -> np.ndarray:
        return np.exp(packed.dot(self.logsig_w) + self.logsig_b)

    def draw(self, packed: PackedRequests, rng) -> np.ndarray:
        """One market price per row, max(N(mu, sigma^2), 0) (prices are
        physical), in one rng.normal call."""
        return np.maximum(rng.normal(self.mu(packed), self.sigma(packed)), 0.0)


def censored_nll(model: PriceModel, packed: PackedRequests, bids, prices, wins,
                 l2: float = 0.0, want_grads: bool = True):
    """Mean per-sample negative log-likelihood and its gradients.

    Wins contribute exact Gaussian terms; losses contribute
    -log P(w >= bid | x) = -log_ndtr(-t) at t = (bid - mu) / sigma, and
    the hazard pdf(t) / P(w >= bid | x) in the log domain.
    """
    from scipy.special import log_ndtr

    wins = np.asarray(wins, dtype=bool)
    n = len(packed)
    mu = model.mu(packed)
    logsig = packed.dot(model.logsig_w) + model.logsig_b
    sig = np.exp(logsig)

    r_mu = np.zeros(n)      # d nll / d mu, per row
    r_ls = np.zeros(n)      # d nll / d logsigma, per row
    nll = np.zeros(n)

    if wins.any():
        z = (np.asarray(prices)[wins] - mu[wins]) / sig[wins]
        nll[wins] = logsig[wins] + 0.5 * z * z + 0.5 * np.log(2 * np.pi)
        r_mu[wins] = -z / sig[wins]
        r_ls[wins] = 1.0 - z * z
    losses = ~wins
    if losses.any():
        t = (np.asarray(bids)[losses] - mu[losses]) / sig[losses]
        logsf = log_ndtr(-t)
        nll[losses] = -logsf
        hazard = np.exp((-t**2 / 2.0 - LOG_SQRT_2PI) - logsf)
        r_mu[losses] = -hazard / sig[losses]
        r_ls[losses] = -hazard * t
    loss = float(nll.mean()) + 0.5 * l2 * float(
        np.dot(model.mu_w, model.mu_w) + np.dot(model.logsig_w, model.logsig_w)
    )
    if not want_grads:
        return loss, None
    grads = {
        "mu_w": packed.scatter(r_mu / n) + l2 * model.mu_w,
        "mu_b": float(r_mu.mean()),
        "logsig_w": packed.scatter(r_ls / n) + l2 * model.logsig_w,
        "logsig_b": float(r_ls.mean()),
    }
    return loss, grads


def logistic(s: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-s))


@dataclass
class ClickModel:
    """Logistic regression Pr(click | x) on impressed requests."""

    w: np.ndarray
    b: float

    def logit(self, packed: PackedRequests) -> np.ndarray:
        return packed.dot(self.w) + self.b

    def prob(self, packed: PackedRequests) -> np.ndarray:
        return logistic(self.logit(packed))


def click_nll(model: ClickModel, packed: PackedRequests, clicks,
              l2: float = 0.0, want_grads: bool = True):
    """Mean logistic NLL over impressed rows, with gradients."""
    y = np.asarray(clicks, dtype=np.float64)
    s = model.logit(packed)
    # log(1 + e^s) - y*s, computed stably
    nll = np.logaddexp(0.0, s) - y * s
    loss = float(nll.mean()) + 0.5 * l2 * float(np.dot(model.w, model.w))
    if not want_grads:
        return loss, None
    r = (logistic(s) - y) / len(packed)
    return loss, {"w": packed.scatter(r) + l2 * model.w, "b": float(r.sum())}


@dataclass
class FitConfig:
    """Settings of the price and click fits.

    Both fits read l2_grid (one fit per value, the lowest validation NLL
    wins), max_epochs and history (keep the validation NLL curve). The
    price fit reads max_epochs as its budget of full-batch objective
    evaluations; the click fit as its epoch limit. lr_grid, batch_size
    and patience are read by the click fit only.
    """

    lr_grid: tuple = (0.3, 0.03)
    l2_grid: tuple = (1e-2, 1e-4, 1e-6, 1e-8)
    batch_size: int = 1024
    max_epochs: int = 100
    patience: int = 10
    history: bool = False


def _minibatch_fit(n, rng, step_fn, val_fn, snapshot_fn, cfg: FitConfig):
    """Generic epoch loop with early stopping on a validation metric.

    step_fn(rows) performs one optimizer update; val_fn() scores the
    current parameters; snapshot_fn() captures them. Returns
    (best val, best snapshot, epochs run, val history).
    """
    best = np.inf
    best_snap = snapshot_fn()
    since_best = 0
    history = []
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            step_fn(order[start : start + cfg.batch_size])
        v = val_fn()
        history.append(v)
        if not np.isfinite(v):
            raise NumericalError(f"validation loss became non-finite at epoch {epoch}")
        if v < best - 1e-9:
            best, since_best = v, 0
            best_snap = snapshot_fn()
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best, best_snap, epoch + 1, history


# Lower bound on every log-sigma coefficient in standardised units. Where
# a feature's wins can be fit exactly (all winning prices equal, or a
# feature seen on a single win) the penalised likelihood keeps rising as
# sigma shrinks, and its optimum lies past the floating-point range; the
# bound keeps such a fit finite. A feature may shrink sigma by up to e^10.
LOGSIG_FLOOR = -10.0


class _BudgetSpent(Exception):
    """The objective was asked for one pass more than the fit's budget."""


def _fit_price(train, val, l2, cfg):
    """Penalised censored MLE for one l2 by full-batch L-BFGS-B.

    The parameters are optimised in standardised units: mu in units of
    the spread s of the winning prices around their mean m, log-sigma
    offset by log s. The objective is the same; the start point (all
    zeros) is mu = m, sigma = s. Returns (model, info, why the fit
    stopped short of convergence or None); info is train_price_model's.
    """
    from scipy.optimize import minimize

    won = train.prices[train.wins]
    m = float(won.mean())
    s = float(won.std()) or 1.0   # equal prices: any positive unit will do
    d = train.width

    def model_at(theta):
        return PriceModel(s * theta[:d], m + s * theta[d], theta[d + 1 : -1].copy(),
                          float(np.log(s) + theta[-1]))

    passes = 0

    def objective(theta):
        nonlocal passes
        if passes == cfg.max_epochs:
            raise _BudgetSpent
        passes += 1
        # line-search trial points may overflow; L-BFGS-B rejects them
        with np.errstate(all="ignore"):
            loss, g = censored_nll(model_at(theta), train.requests, train.bids,
                                   train.prices, train.wins, l2=l2)
        return loss, np.concatenate([s * g["mu_w"], [s * g["mu_b"]],
                                     g["logsig_w"], [g["logsig_b"]]])

    def val_nll(theta):
        v, _ = censored_nll(model_at(theta), val.requests, val.bids, val.prices,
                            val.wins, want_grads=False)
        return v

    last = np.zeros(2 * d + 2)   # the last accepted iterate
    history = []

    def accept(intermediate_result):
        last[:] = intermediate_result.x
        if cfg.history:
            history.append(val_nll(last))

    try:
        # scipy's own limits are lifted to the budget; _BudgetSpent enforces it
        res = minimize(objective, last.copy(), jac=True, method="L-BFGS-B",
                       bounds=[(None, None)] * (d + 1) + [(LOGSIG_FLOOR, None)] * (d + 1),
                       callback=accept,
                       options={"maxfun": cfg.max_epochs, "maxiter": cfg.max_epochs})
        theta, short = res.x, None if res.success else res.message
    except _BudgetSpent:
        theta, short = last, f"pass budget fit_epochs={cfg.max_epochs} spent"
    info = {"l2": l2, "passes": passes, "converged": short is None,
            "val_nll": val_nll(theta), "history": history if cfg.history else None}
    return model_at(theta), info, short


def train_price_model(train: SampleSet, val: SampleSet, cfg: FitConfig = FitConfig()):
    """Penalised censored MLE for each l2 in cfg.l2_grid; the l2 with the
    lowest validation NLL wins.

    Each fit is a full-batch L-BFGS-B run from the mean and spread of the
    winning prices, allowed cfg.max_epochs evaluations of the training
    objective (one evaluation is one pass over the data), with every
    log-sigma coefficient kept above LOGSIG_FLOOR; it draws nothing at
    random. info holds the chosen l2, its passes, whether it converged,
    its validation NLL and, when cfg.history is set, its validation NLL
    after every L-BFGS-B iteration. A returned model
    that did not converge is not the MLE and warns; a non-finite
    validation NLL raises NumericalError.
    """
    if not train.wins.any():
        raise DataError("all training auctions censored: price mean unidentifiable")
    best = None
    for l2 in cfg.l2_grid:
        fit = _fit_price(train, val, l2, cfg)
        v = fit[1]["val_nll"]
        if not np.isfinite(v):
            raise NumericalError(f"price fit with l2 {l2}: validation NLL is {v}")
        if best is None or v < best[1]["val_nll"]:
            best = fit
    model, info, short = best
    if short is not None:
        warnings.warn(f"price fit (l2 {info['l2']}) stopped before convergence: "
                      f"{short}; the model is not the MLE")
    return model, info


def train_click_model(train: SampleSet, val: SampleSet, rng,
                      cfg: FitConfig = FitConfig()):
    """Logistic fit on impressed rows only: minibatch Adam for each
    (lr, l2) in the grids with early stopping on validation NLL; the
    lowest validation NLL wins.

    Single-class data degrades to a prior-only model with a warning.
    """
    tr_rows = np.flatnonzero(train.wins)
    va_rows = np.flatnonzero(val.wins)
    if tr_rows.size == 0:
        raise DataError("no impressions in the training split; click model unfit")
    y = train.clicks[tr_rows].astype(np.float64)
    if y.min() == y.max():
        warnings.warn("single-class click data; returning prior-only model")
        k, n = y.sum(), y.size
        b = float(np.log((k + 0.5) / (n - k + 0.5)))
        return ClickModel(np.zeros(train.width), b), {"prior_only": True}

    packed = train.requests.rows(tr_rows)
    if va_rows.size and np.ptp(val.clicks[va_rows].astype(float)) > 0:
        vpacked = val.requests.rows(va_rows)
        vy = val.clicks[va_rows]
    else:  # fall back to scoring on train when validation is degenerate
        vpacked, vy = packed, train.clicks[tr_rows]

    def model_at(theta):   # theta = [w; b]
        return ClickModel(theta[:-1], float(theta[-1]))

    best = None
    for lr in cfg.lr_grid:
        for l2 in cfg.l2_grid:
            init_rng = np.random.Generator(np.random.Philox(key=rng.integers(2**63)))
            theta = np.append(init_rng.standard_normal(train.width), 0.0)
            state = AdamState(theta)

            def step(rows):
                _, grads = click_nll(model_at(theta), packed.rows(rows),
                                     train.clicks[tr_rows[rows]], l2=l2)
                adam_step(theta, np.append(grads["w"], grads["b"]), state, lr=lr)

            def score():
                v, _ = click_nll(model_at(theta), vpacked, vy, want_grads=False)
                return v

            v, snap, epochs, hist = _minibatch_fit(
                tr_rows.size, init_rng, step, score, theta.copy, cfg
            )
            if best is None or v < best[0]:
                best = (v, snap, {"lr": lr, "l2": l2, "epochs": epochs, "val_nll": v,
                                  "history": hist if cfg.history else None})
    return model_at(best[1]), best[2]


def average_ctr(model: ClickModel, requests: PackedRequests) -> float:
    """Mean predicted click rate over a request corpus (LinBid's normalizer)."""
    return float(model.prob(requests).mean())
