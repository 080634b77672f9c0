"""Reference methods for benchmarking: NNKCDE and an AR-GARCH model.

NNKCDE places a Gaussian kernel density on the responses of the k
nearest training neighbors of the query covariates, renormalized on the
evaluation grid. Its (k, h) pair is tuned by the grid-form density loss
on the validation block.

The AR-GARCH model is an AR(p) mean with intercept and GARCH(1, 1)
innovations fit by Gaussian quasi-maximum-likelihood:

    y_t = c + a_1 y_{t-1} + ... + a_p y_{t-p} + e_t,
    e_t ~ N(0, s2_t),  s2_t = omega + alpha e_{t-1}^2 + beta s2_{t-1}.

The optimizer is Nelder-Mead on an unconstrained reparameterization
(log omega; a softmax puts (alpha, beta) inside the stationarity
triangle), run from a small set of fixed starting points.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from flexts.errors import DataError, NumericError
from flexts.estimator import renormalize_rows
from flexts.evaluation import cde_loss_grid
from flexts.regression import k_candidates, nearest_order, pairwise_sq_dists

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# query rows per block in NNKCDE's distance and kernel passes
CHUNK = 64


# ---------------------------------------------------------------------------
# Nearest-neighbor kernel conditional density estimation
# ---------------------------------------------------------------------------


@dataclass
class NnkcdeModel:
    """k nearest neighbors + Gaussian KDE over their responses."""

    train_u: np.ndarray
    train_y: np.ndarray
    k: int
    h: float
    lo: float
    hi: float
    grid_size: int = 1001

    def grid(self):
        return np.linspace(self.lo, self.hi, self.grid_size)

    def neighbor_responses(self, eval_u):
        """Training responses of each query's k nearest neighbors, (n, k)."""
        eval_u = np.asarray(eval_u, dtype=float)
        if eval_u.ndim == 1:
            eval_u = eval_u[None, :]
        if eval_u.shape[1] != self.train_u.shape[1]:
            raise DataError(
                f"query has {eval_u.shape[1]} features, model expects "
                f"{self.train_u.shape[1]}"
            )
        if not np.all(np.isfinite(eval_u)):
            raise DataError("covariates contain non-finite values")
        out = np.empty((eval_u.shape[0], self.k))
        for start in range(0, eval_u.shape[0], CHUNK):
            sq = pairwise_sq_dists(eval_u[start : start + CHUNK], self.train_u)
            out[start : start + CHUNK] = self.train_y[nearest_order(sq, self.k)]
        return out

    def density_rows(self, neigh_y, grid_y):
        """Renormalized Gaussian KDE over each row of neighbor responses."""
        out = np.empty((neigh_y.shape[0], grid_y.size))
        for start in range(0, neigh_y.shape[0], CHUNK):
            block = neigh_y[start : start + CHUNK]
            diff = (grid_y[None, None, :] - block[:, :, None]) / self.h
            raw = np.exp(-0.5 * diff * diff).mean(axis=1) / (self.h * SQRT_2PI)
            out[start : start + CHUNK] = renormalize_rows(raw, grid_y)[0]
        return out

    def predict_density_batch(self, eval_u, grid_y=None):
        """Renormalized neighbor-KDE densities, one row per query."""
        if grid_y is None:
            grid_y = self.grid()
        return self.density_rows(self.neighbor_responses(eval_u), grid_y)

    def predict_density(self, u, grid_y=None):
        return self.predict_density_batch(u, grid_y=grid_y)[0]


def default_bandwidth_grid(train_y):
    """Bandwidths around Silverman's rule on the training responses."""
    train_y = np.asarray(train_y, dtype=float)
    n = train_y.size
    sd = float(train_y.std(ddof=1)) if n > 1 else 0.0
    if sd == 0.0:
        raise DataError("constant responses; bandwidth grid undefined")
    silverman = 1.06 * sd * n ** (-0.2)
    return [silverman * m for m in (0.25, 0.5, 1.0, 2.0, 4.0)]


def nnkcde_fit(
    train_u,
    train_y,
    val_u,
    val_y,
    lo,
    hi,
    k_grid=None,
    h_grid=None,
    grid_size=1001,
):
    """Tune (k, h) by grid-form density loss on the validation block.

    Candidate k larger than the training size are skipped with a
    warning. Ties prefer the pair appearing earlier in (h, k) scan
    order with k varying fastest.
    """
    train_u = np.asarray(train_u, dtype=float)
    train_y = np.asarray(train_y, dtype=float)
    val_u = np.asarray(val_u, dtype=float)
    val_y = np.asarray(val_y, dtype=float)
    n_tr = train_u.shape[0]
    if n_tr == 0 or val_u.shape[0] == 0:
        raise DataError("nnkcde needs nonempty training and validation blocks")
    k_grid = k_candidates(k_grid, n_tr)
    if h_grid is None:
        h_grid = default_bandwidth_grid(train_y)
    h_grid = [float(h) for h in h_grid]
    if any(h <= 0 for h in h_grid):
        raise ValueError("bandwidths must be positive")

    grid_y = np.linspace(lo, hi, grid_size)
    k_max = max(k_grid)
    n_val = val_u.shape[0]

    # one neighbor ordering shared by every candidate pair
    sq = pairwise_sq_dists(val_u, train_u)
    order = nearest_order(sq, k_max)
    neigh_y = train_y[order]  # (n_val, k_max)

    best = None  # (loss, h_index, k_index)
    for hi_idx, h in enumerate(h_grid):
        # running kernel sums over the neighbor axis give every k at once
        cums = np.empty((n_val, len(k_grid), grid_y.size))
        for start in range(0, n_val, CHUNK):
            block = neigh_y[start : start + CHUNK]
            diff = (grid_y[None, None, :] - block[:, :, None]) / h
            kern = np.exp(-0.5 * diff * diff)
            csum = np.cumsum(kern, axis=1)
            for ki, k in enumerate(k_grid):
                cums[start : start + block.shape[0], ki] = csum[:, k - 1, :]
        for ki, k in enumerate(k_grid):
            raw = cums[:, ki, :] / (k * h * SQRT_2PI)
            dens, _ = renormalize_rows(raw, grid_y)
            loss = cde_loss_grid(grid_y, dens, val_y).loss
            key = (loss, hi_idx, ki)
            if best is None or key < best:
                best = key
    _, hi_best, ki_best = best
    return NnkcdeModel(
        train_u=train_u,
        train_y=train_y,
        k=k_grid[ki_best],
        h=h_grid[hi_best],
        lo=float(lo),
        hi=float(hi),
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# AR(p) + GARCH(1, 1)
# ---------------------------------------------------------------------------


@dataclass
class GarchModel:
    """Fitted AR(p)-GARCH(1,1) parameters and the achieved loglik.

    ``s2_init`` seeds the variance recursion (the OLS residual variance
    at fit time) so filtering a series reproduces the fit exactly.
    """

    c: float
    ar: np.ndarray
    omega: float
    alpha: float
    beta: float
    s2_init: float
    loglik: float = float("nan")

    @property
    def p(self):
        return int(self.ar.shape[0])

    def unconditional_variance(self):
        return self.omega / (1.0 - self.alpha - self.beta)


def _lag_matrix(y, p):
    n = y.shape[0]
    cols = [y[p - lag : n - lag] for lag in range(1, p + 1)]
    if cols:
        return np.column_stack(cols)
    return np.empty((n - p, 0))


# Largest allowed alpha+beta. Keeping the persistence strictly below 1
# with a real margin keeps the variance recursion mean-reverting within
# the sample, so omega/(1-alpha-beta) stays identified; the boundary
# itself is a flat likelihood ridge on near-homoskedastic data.
PERSISTENCE_CAP = 0.999


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _unpack(theta, p):
    """Map unconstrained parameters to (c, ar, omega, alpha, beta).

    omega = exp(.); logistic maps put alpha+beta in (0, PERSISTENCE_CAP)
    and split it between alpha and beta.
    """
    c = theta[0]
    ar = theta[1 : 1 + p]
    omega = np.exp(theta[1 + p])
    persistence = PERSISTENCE_CAP * _sigmoid(theta[2 + p])
    mix = _sigmoid(theta[3 + p])
    return c, ar, omega, persistence * mix, persistence * (1.0 - mix)


def _variance_recursion(eps, omega, alpha, beta, s2_init):
    """s2_t = omega + alpha*eps_{t-1}^2 + beta*s2_{t-1}, s2_0 = s2_init.

    The linear recursion is an IIR filter in beta driven by
    omega + alpha*eps^2, evaluated exactly by lfilter.
    """
    driver = np.empty(eps.shape[0])
    driver[0] = s2_init
    driver[1:] = omega + alpha * eps[:-1] ** 2
    return lfilter([1.0], [1.0, -beta], driver)


def garch_negloglik(theta, y, p, s2_init):
    """Negative Gaussian log-likelihood in unconstrained parameters."""
    c, ar, omega, alpha, beta = _unpack(theta, p)
    lags = _lag_matrix(y, p)
    eps = y[p:] - c - lags @ ar
    s2 = _variance_recursion(eps, omega, alpha, beta, s2_init)
    if not np.all(np.isfinite(s2)) or np.any(s2 <= 0.0):
        return np.inf
    ll = -0.5 * np.sum(np.log(2.0 * np.pi) + np.log(s2) + eps * eps / s2)
    return -ll if np.isfinite(ll) else np.inf


def garch_starting_points(y, p):
    """Deterministic optimizer starts: OLS mean, three (alpha, beta) pairs."""
    y = np.asarray(y, dtype=float)
    lags = _lag_matrix(y, p)
    design = np.column_stack([np.ones(y.shape[0] - p), lags])
    coef, *_ = np.linalg.lstsq(design, y[p:], rcond=None)
    eps = y[p:] - design @ coef
    v = float(eps.var())
    if v <= 0.0:
        raise DataError("residual variance is zero; series looks constant")
    starts = []
    for alpha, beta in ((0.05, 0.90), (0.10, 0.80), (0.02, 0.50)):
        omega = v * (1.0 - alpha - beta)
        persistence = alpha + beta
        s = np.log(persistence / (PERSISTENCE_CAP - persistence))
        m = np.log(alpha / beta)
        theta = np.concatenate([coef, [np.log(omega), s, m]])
        starts.append(theta)
    return starts, v


def garch_fit(y, p):
    """Quasi-maximum-likelihood fit of the AR(p)-GARCH(1,1) model.

    Nelder-Mead runs from each fixed start; the best final likelihood
    wins (ties keep the earlier start). The variance recursion is
    initialized at the residual variance of the OLS mean fit.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DataError(f"series must be 1-d, got shape {y.shape}")
    if p < 0:
        raise ValueError(f"ar order must be nonnegative, got {p}")
    n = y.shape[0]
    if n < 20 * (p + 4):
        raise DataError(
            f"series of length {n} too short to fit ar order {p} with garch; "
            f"need at least {20 * (p + 4)}"
        )
    if not np.all(np.isfinite(y)):
        raise DataError("series contains non-finite values")
    if float(np.var(y)) == 0.0:
        raise DataError("constant series; garch variance is unidentified")

    starts, s2_init = garch_starting_points(y, p)
    best_res = None
    for theta0 in starts:
        res = minimize(
            garch_negloglik,
            theta0,
            args=(y, p, s2_init),
            method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-8},
        )
        if np.isfinite(res.fun) and (best_res is None or res.fun < best_res.fun):
            best_res = res
    if best_res is None:
        raise NumericError("garch likelihood non-finite at every starting point")

    c, ar, omega, alpha, beta = _unpack(best_res.x, p)
    if np.abs(ar).sum() >= 1.0:
        warnings.warn(
            f"sum of AR coefficient magnitudes is {np.abs(ar).sum():.3f} >= 1; "
            "the fitted mean may be nonstationary",
            RuntimeWarning,
        )
    return GarchModel(
        c=float(c),
        ar=np.asarray(ar, dtype=float).copy(),
        omega=float(omega),
        alpha=float(alpha),
        beta=float(beta),
        s2_init=float(s2_init),
        loglik=float(-best_res.fun),
    )


def garch_filter(model, y):
    """Conditional means and variances along a series, causally.

    Returns (means, s2), each of length len(y) - p, aligned so that
    means[i] and s2[i] describe y[p + i] given its past.
    """
    y = np.asarray(y, dtype=float)
    p = model.p
    if y.shape[0] <= p:
        raise DataError(f"series too short to filter with {p} lags")
    lags = _lag_matrix(y, p)
    means = model.c + lags @ model.ar
    eps = y[p:] - means
    s2 = _variance_recursion(
        eps, model.omega, model.alpha, model.beta, model.s2_init
    )
    return means, s2


def garch_forecast(model, y):
    """One-step-ahead conditional mean and variance after the series end."""
    y = np.asarray(y, dtype=float)
    p = model.p
    means, s2 = garch_filter(model, y)
    eps_last = y[-1] - means[-1] if means.shape[0] else 0.0
    next_mean = model.c + (
        y[-1 : -p - 1 : -1] @ model.ar if p else 0.0
    )
    next_s2 = model.omega + model.alpha * eps_last**2 + model.beta * s2[-1]
    return float(next_mean), float(next_s2)


def garch_density_rows(means, s2, grid_y):
    """Renormalized Gaussian predictive densities on a common grid."""
    means = np.asarray(means, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if np.any(s2 <= 0):
        raise NumericError("nonpositive conditional variance in garch filter")
    sd = np.sqrt(s2)
    zz = (grid_y[None, :] - means[:, None]) / sd[:, None]
    raw = np.exp(-0.5 * zz * zz) / (sd[:, None] * SQRT_2PI)
    return renormalize_rows(raw, grid_y)[0]
