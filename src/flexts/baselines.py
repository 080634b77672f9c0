"""Reference methods for benchmarking: NNKCDE and an AR-GARCH model.

NNKCDE places a Gaussian kernel density on the responses of the k
nearest training neighbors of the query covariates, renormalized on the
evaluation grid: a knn average (``kernel_means``) whose targets are the
neighbors' Gaussian kernel rows on the grid. Its (k, h) pair is tuned by
the grid-form density loss on the validation block, each candidate's rows
scored by ``estimator.score_rows`` in slices. The kernel rows, one
per training response some query row uses, fill one matrix, and
``neighbor_means`` averages them into the outputs. Both run in slices of
max(1, SLICE_ELEMS // grid size) rows on ``regression``'s row threads
(``split_rows``), so the only full-size arrays are that matrix and the
outputs, and every output keeps its bits for any thread count.

The AR-GARCH model is an AR(p) mean with intercept and GARCH(1, 1)
innovations fit by Gaussian quasi-maximum-likelihood:

    y_t = c + a_1 y_{t-1} + ... + a_p y_{t-p} + e_t,
    e_t ~ N(0, s2_t),  s2_t = omega + alpha e_{t-1}^2 + beta s2_{t-1}.

The optimizer is Nelder-Mead on an unconstrained reparameterization
(log omega; a softmax puts (alpha, beta) inside the stationarity
triangle), run from a small set of fixed starting points.

Only the GARCH code loads ``scipy.optimize`` and ``scipy.signal``, on
first use: ``garch_fit`` imports ``minimize`` once its input checks
pass, and ``_variance_recursion`` (under ``garch_fit``, ``garch_filter``
and ``garch_forecast``) imports ``lfilter``. Importing this module, or
the CLI, loads neither, nor the ``scipy.stats`` that ``scipy.signal``
pulls in.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from flexts.basis import check_grid_size, check_range, check_scale, fit_scaler
from flexts.errors import DataError, NumericError
from flexts.estimator import DensityBatch, score_rows
from flexts.features import FeatureSpec, SplitSpec
# pairwise_sq_dists is unused here; perfbench/test_perfbench.py reads the binding
from flexts.regression import (
    SLICE_ELEMS,
    check_k,
    check_queries,
    check_training,
    k_candidates,
    knn_order,
    neighbor_means,
    pairwise_sq_dists,
    set_prepared,
    split_rows,
    sq_norms,
)

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Nearest-neighbor kernel conditional density estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NnkcdeModel:
    """k nearest neighbors + Gaussian KDE over their responses.

    The grid size, training arrays, k, h, the range and the width of the
    feature spec, if any, are checked, and the squared training norms
    computed, once when the model is built.
    """

    train_u: np.ndarray
    train_y: np.ndarray
    k: int
    h: float
    lo: float
    hi: float
    grid_size: int = 1001
    # the design and split the model was fitted on, which the CLI records
    features: FeatureSpec | None = None
    split: SplitSpec | None = None

    def __post_init__(self):
        check_grid_size(self.grid_size)
        train_u, train_y = check_training(self.train_u, self.train_y, target_ndim=1)
        check_k(self.k, train_u.shape[0])
        check_bandwidths([self.h])
        check_range(self.lo, self.hi)
        spec = self.features
        if spec is not None and spec.n_columns != train_u.shape[1]:
            raise ValueError(f"the features {spec} build {spec.n_columns} covariates, "
                             f"not the {train_u.shape[1]} columns of train_u")
        set_prepared(self, train_u=train_u, train_y=train_y,
                     train_norms=sq_norms(train_u))

    def grid(self):
        return np.linspace(self.lo, self.hi, self.grid_size)

    def row_state(self, eval_u, series=None, rows=None):
        """Training indices of each query row's k nearest neighbors, (n, k).

        ``eval_u`` is a 2-d array of rows or one 1-d row.
        """
        return knn_order(self.train_u, np.atleast_2d(eval_u), self.k, self.train_norms)

    def raw_rows(self, neighbors, grid_y):
        """The Gaussian KDE over each row's neighbor responses on grid_y."""
        return kernel_means(self.train_y, neighbors, [self.k], grid_y, self.h)[0]

    def density_rows(self, neighbors, grid_y):
        """The DensityBatch of the KDE rows (renormalized; they are >= 0)."""
        return DensityBatch.from_raw(grid_y, self.raw_rows(neighbors, grid_y))

    def predict_density_batch(self, eval_u):
        """Densities on the model's grid; perfbench's nnkcde_predict probe wraps it."""
        return self.density_rows(self.row_state(eval_u), self.grid()).density


def kernel_means(train_y, order, ks, grid_y, h):
    """Gaussian KDE on grid_y over each order row's first k, per k in ks.

    The kernel row of each training response in ``order`` is evaluated
    once, into one (responses, grid) matrix allocated here and filled in
    row slices of about SLICE_ELEMS values on the row threads
    (``split_rows``); ``neighbor_means`` averages its rows.
    """
    used, where = np.unique(order, return_inverse=True)
    centers = train_y[used]
    kern = np.empty((used.size, grid_y.size))

    def fill(lo, hi):
        diff = grid_y - centers[lo:hi, None]
        diff /= h
        rows = kern[lo:hi]
        np.multiply(-0.5, diff, out=rows)
        rows *= diff
        np.exp(rows, out=rows)

    split_rows(used.size, max(1, SLICE_ELEMS // grid_y.size), fill)
    return neighbor_means(kern, where.reshape(order.shape), ks, scale=h * SQRT_2PI)


def check_bandwidths(h_grid):
    """Kernel bandwidths as floats, each positive (NaN is not)."""
    h_grid = [float(h) for h in h_grid]
    if not all(h > 0 for h in h_grid):
        raise ValueError(f"bandwidths must be positive, got {h_grid}")
    return h_grid


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
    check_grid_size(grid_size)
    check_range(lo, hi)
    val_u = np.asarray(val_u, dtype=float)
    val_y = np.asarray(val_y, dtype=float)
    n_tr = train_u.shape[0]
    if n_tr == 0 or val_u.shape[0] == 0:
        raise DataError("nnkcde needs nonempty training and validation blocks")
    # every array is checked before the bandwidths and the neighbor search
    train_u, train_y = check_training(train_u, train_y, target_ndim=1)
    val_u = check_queries(val_u, train_u.shape[1])
    if val_y.shape != (val_u.shape[0],):
        raise DataError(
            f"val_y must be 1-d with one value per validation row "
            f"({val_u.shape[0]}), got shape {val_y.shape}"
        )
    if not np.all(np.isfinite(val_y)):
        raise DataError("validation responses contain non-finite values")
    k_grid = k_candidates(k_grid, n_tr)
    if h_grid is None:
        h_grid = default_bandwidth_grid(train_y)
    h_grid = check_bandwidths(h_grid)

    grid_y = np.linspace(lo, hi, grid_size)
    # one neighbor ordering shared by every candidate pair
    order = knn_order(train_u, val_u, max(k_grid))

    keys = (  # (loss, h index, k index)
        (score_rows(grid_y, raw, val_y).cde.loss, ih, ik)
        for ih, h in enumerate(h_grid)
        for ik, raw in enumerate(kernel_means(train_y, order, k_grid, grid_y, h))
    )
    _, ih, ik = min(keys)
    return NnkcdeModel(
        train_u=train_u,
        train_y=train_y,
        k=k_grid[ik],
        h=h_grid[ih],
        lo=float(lo),
        hi=float(hi),
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# AR(p) + GARCH(1, 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GarchModel:
    """Fitted AR(p)-GARCH(1,1) parameters and the achieved loglik.

    ``s2_init`` seeds the variance recursion (the OLS residual variance
    at fit time) so filtering a series reproduces the fit exactly.
    ``lo``, ``hi`` and ``grid_size`` give the response grid, the padded
    range of the fitted responses. The grid and the parameters, finite and
    in the fit's domain (omega > 0, alpha and beta >= 0 with alpha + beta
    < 1, s2_init > 0), are checked when the model is built, and so is the
    feature spec, if any:
    ``row_state`` lines the filter up with the rows of a design of p lags
    alone, so the spec must be that design's.
    """

    c: float
    ar: np.ndarray
    omega: float
    alpha: float
    beta: float
    s2_init: float
    lo: float
    hi: float
    grid_size: int
    loglik: float = float("nan")
    # the design and split the model was fitted on, which the CLI records
    features: FeatureSpec | None = None
    split: SplitSpec | None = None

    def __post_init__(self):
        check_grid_size(self.grid_size)
        check_range(self.lo, self.hi)
        ar = np.asarray(self.ar, dtype=float)
        if ar.ndim != 1 or not np.all(np.isfinite(ar)):
            raise ValueError(f"ar must be a 1-d array of finite floats, got {self.ar!r}")
        params = [self.c, self.omega, self.alpha, self.beta, self.s2_init]
        if not np.all(np.isfinite(params)):
            raise ValueError(
                f"c, omega, alpha, beta and s2_init must be finite, got {params}")
        # the fit's domain, where every conditional variance is positive
        if not (self.omega > 0 and self.alpha >= 0 and self.beta >= 0
                and self.alpha + self.beta < 1 and self.s2_init > 0):
            raise ValueError(
                "garch needs omega > 0, alpha >= 0, beta >= 0, alpha + beta < 1 "
                f"and s2_init > 0, got omega={self.omega}, alpha={self.alpha}, "
                f"beta={self.beta}, s2_init={self.s2_init}")
        spec = self.features
        if spec is not None and (spec.n_lags != ar.size or spec.rolling or spec.exog):
            raise ValueError(f"garch of ar order {ar.size} reads {ar.size} lags alone, "
                             f"not the features {spec}")
        set_prepared(self, ar=ar)

    @property
    def p(self):
        return int(self.ar.shape[0])

    def grid(self):
        return np.linspace(self.lo, self.hi, self.grid_size)

    def row_state(self, u, series=None, rows=None):
        """Conditional (means, variances) from filtering ``series``.

        ``rows`` selects rows of garch_filter's output, which line up
        with a p-lag design's rows; with rows=None the state is the
        one-step forecast past the series end. ``u`` is not read.
        """
        if series is None:
            raise ValueError(
                "garch prediction needs --input (the variance recursion "
                "state depends on the whole series)"
            )
        if rows is None:
            mean, var = garch_forecast(self, series)
            return np.array([mean]), np.array([var])
        means, s2 = garch_filter(self, series)
        return means[rows], s2[rows]

    def raw_rows(self, state, grid_y):
        return garch_raw_rows(*state, grid_y)

    def density_rows(self, state, grid_y):
        return garch_density_rows(*state, grid_y)

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
    return 1.0 / (1.0 + np.exp(-x))


def _unpack(theta, p):
    """Map unconstrained parameters to (c, ar, omega, alpha, beta).

    omega = exp(.); logistic maps put alpha+beta in (0, PERSISTENCE_CAP)
    and split it between alpha and beta. A logistic argument below about
    -709 overflows exp to inf, which maps exactly to 0; ``garch_fit``
    runs the optimizer under ``np.errstate(over="ignore")`` for that.
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
    # deferred: scipy.signal (and the scipy.stats it loads) only for GARCH
    from scipy.signal import lfilter

    driver = np.empty(eps.shape[0])
    driver[0] = s2_init
    rest = driver[1:]
    np.square(eps[:-1], out=rest)
    rest *= alpha
    rest += omega
    return lfilter([1.0], [1.0, -beta], driver)


def garch_negloglik(theta, target, lags, s2_init):
    """Negative Gaussian log-likelihood in unconstrained parameters.

    ``target`` is the fitted responses y[p:] and ``lags`` their
    ``_lag_matrix(y, p)``, both built once per fit. Non-finite or
    nonpositive variances, and a non-finite loglik, give inf.
    """
    c, ar, omega, alpha, beta = _unpack(theta, lags.shape[1])
    eps = target - c - lags @ ar
    s2 = _variance_recursion(eps, omega, alpha, beta, s2_init)
    if not s2.min() > 0.0:  # NaN fails too; +inf ends as a non-finite ll
        return np.inf
    ll = -0.5 * np.sum(LOG_2PI + np.log(s2) + eps * eps / s2)
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


def garch_fit(y, p, pad=0.05, grid_size=1001):
    """Quasi-maximum-likelihood fit of the AR(p)-GARCH(1,1) model.

    Nelder-Mead runs from each fixed start; the best final likelihood
    wins (ties keep the earlier start). The variance recursion is
    initialized at the residual variance of the OLS mean fit. The
    model's response grid spans the fitted responses y[p:], widened by
    ``pad`` on each side, at ``grid_size`` points.
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
    lo, hi = float(y.min()), float(y.max())
    if lo < hi:  # a constant series fails the variance check
        check_scale(lo, hi)
    if float(np.var(y)) == 0.0:
        raise DataError("constant series; garch variance is unidentified")
    check_grid_size(grid_size)
    scaler = fit_scaler(y[p:], pad)
    # deferred: scipy.optimize only for GARCH, and after the input checks
    from scipy.optimize import minimize

    starts, s2_init = garch_starting_points(y, p)
    likelihood_args = (y[p:], _lag_matrix(y, p), s2_init)
    best_res = None
    # far-out logistic arguments overflow exp; they map exactly to 0 or 1
    with np.errstate(over="ignore"):
        for theta0 in starts:
            res = minimize(
                garch_negloglik,
                theta0,
                args=likelihood_args,
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
        lo=scaler.lo,
        hi=scaler.hi,
        grid_size=grid_size,
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


def garch_raw_rows(means, s2, grid_y):
    """Gaussian predictive densities on a common grid, before renormalization."""
    means = np.asarray(means, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if np.any(s2 <= 0):
        raise NumericError("nonpositive conditional variance in garch filter")
    sd = np.sqrt(s2)
    zz = (grid_y[None, :] - means[:, None]) / sd[:, None]
    return np.exp(-0.5 * zz * zz) / (sd[:, None] * SQRT_2PI)


def garch_density_rows(means, s2, grid_y):
    """Renormalized Gaussian predictive densities on a common grid, a DensityBatch."""
    return DensityBatch.from_raw(grid_y, garch_raw_rows(means, s2, grid_y))
