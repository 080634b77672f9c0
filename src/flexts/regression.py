"""Regression backends for basis-coefficient estimation.

Each backend regresses a matrix of targets (one column per basis
function evaluated at the training responses) on the covariates, and
predicts all target columns jointly at new covariate points. Multiple
hyperparameter values can be evaluated against shared distance
computations because model selection sweeps a grid.

Backends:

* Nadaraya-Watson with a uniform kernel of radius delta (mean of the
  targets over training points within delta of the query).
* k-nearest neighbors, ties at the k-th distance broken toward the
  lower training index.
* LASSO via cyclic coordinate descent on standardized covariates with
  an unpenalized intercept, objective (1/2n)||y - Xb||^2 + lam*||b||_1.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from flexts.errors import DataError

# each backend's hyperparameter: the field of its model that holds it
HYPER_NAMES = {"nw": "delta", "knn": "k", "lasso": "lam"}
BACKEND_KINDS = tuple(HYPER_NAMES)

# rows per block in the row-blocked passes over a distance matrix; bounds
# their scratch to ROW_BLOCK * n_train values whatever the query count
ROW_BLOCK = 256


def pairwise_sq_dists(a, b):
    """Squared Euclidean distances between rows of a (n, d) and b (m, d).

    Each entry is (|a_i|^2 + |b_j|^2) - 2 a_i.b_j, formed in place in the
    product's buffer one row block at a time, so the only (n, m) array
    allocated is the result.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aa = (a * a).sum(axis=1)
    bb = (b * b).sum(axis=1)
    sq = a @ b.T
    sq *= 2.0
    for start in range(0, sq.shape[0], ROW_BLOCK):
        rows = sq[start : start + ROW_BLOCK]
        np.subtract(aa[start : start + ROW_BLOCK, None] + bb, rows, out=rows)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _check_training(train_u, train_phi):
    train_u = np.asarray(train_u, dtype=float)
    train_phi = np.asarray(train_phi, dtype=float)
    if train_u.ndim != 2:
        raise ValueError(f"train_u must be 2-d, got shape {train_u.shape}")
    if train_phi.ndim != 2:
        raise ValueError(f"train_phi must be 2-d, got shape {train_phi.shape}")
    if train_u.shape[0] != train_phi.shape[0]:
        raise ValueError(
            f"row mismatch: {train_u.shape[0]} covariate rows vs "
            f"{train_phi.shape[0]} target rows"
        )
    if train_u.shape[0] == 0:
        raise ValueError("empty training set")
    if not (np.all(np.isfinite(train_u)) and np.all(np.isfinite(train_phi))):
        raise ValueError("training data contains non-finite values")
    return train_u, train_phi


@dataclass
class CoefficientPredictions:
    """Predicted target matrix plus sparse-neighborhood diagnostics."""

    b_hat: np.ndarray
    n_fallback: int = 0


# ---------------------------------------------------------------------------
# Nadaraya-Watson (uniform kernel)
# ---------------------------------------------------------------------------


@dataclass
class NadarayaWatsonModel:
    train_u: np.ndarray
    train_phi: np.ndarray
    delta: float

    def predict(self, eval_u):
        return nw_predict(self.train_u, self.train_phi, eval_u, self.delta)


def nw_predict(train_u, train_phi, eval_u, delta, sq_dists=None):
    """Uniform-kernel local mean of each target column.

    Query points with no training point within ``delta`` fall back to the
    global column means; the count of such rows is reported so callers
    can surface the diagnostic.
    """
    train_u, train_phi = _check_training(train_u, train_phi)
    eval_u = np.asarray(eval_u, dtype=float)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if sq_dists is None:
        sq_dists = pairwise_sq_dists(eval_u, train_u)
    mask = sq_dists <= delta * delta
    counts = mask.sum(axis=1)
    b_hat = mask.astype(float) @ train_phi
    inside = counts > 0
    b_hat[inside] /= counts[inside, None]
    n_fallback = int((~inside).sum())
    if n_fallback:
        b_hat[~inside] = train_phi.mean(axis=0)
    return CoefficientPredictions(b_hat=b_hat, n_fallback=n_fallback)


def nw_predict_grid(train_u, train_phi, eval_u, deltas):
    """nw_predict for several radii, sharing one distance matrix."""
    train_u, train_phi = _check_training(train_u, train_phi)
    sq_dists = pairwise_sq_dists(np.asarray(eval_u, dtype=float), train_u)
    return [
        nw_predict(train_u, train_phi, eval_u, d, sq_dists=sq_dists) for d in deltas
    ]


def default_delta_grid(train_u, n_candidates=8):
    """Radii bracketing a dimension-aware reference bandwidth.

    The center is the median pairwise distance shrunk by T^(-1/(2+d)),
    the rate at which the smoothing radius should contract for Lipschitz
    conditional densities in d effective dimensions. The grid spans a
    factor of four each way on a log scale.
    """
    train_u = np.asarray(train_u, dtype=float)
    n, d = train_u.shape
    if n > 500:
        # median of a fixed subsample is enough to set the scale
        idx = np.linspace(0, n - 1, 500).astype(int)
        sample = train_u[idx]
    else:
        sample = train_u
    sq = pairwise_sq_dists(sample, sample)
    off_diag = sq[np.triu_indices(sample.shape[0], k=1)]
    median = float(np.sqrt(np.median(off_diag)))
    if median == 0.0:
        raise DataError("covariates are degenerate; pairwise distances all zero")
    center = median * n ** (-1.0 / (2.0 + d))
    return np.geomspace(center / 4.0, center * 4.0, n_candidates)


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------


@dataclass
class KnnModel:
    train_u: np.ndarray
    train_phi: np.ndarray
    k: int

    def predict(self, eval_u):
        return knn_predict(self.train_u, self.train_phi, eval_u, self.k)


def nearest_order(sq_dists, k):
    """Column indices of the k smallest entries of each row, nearest first.

    Equal to ``np.argsort(sq_dists, axis=1, kind="stable")[:, :k]``: among
    tied distances the lower training index comes first. Each block of
    rows is partitioned rather than sorted, and only the k selected
    entries are ordered, by (distance, index). A row whose k-th distance
    also occurs outside the selection (or that holds NaN) cannot be
    settled that way and is stably sorted in full.
    """
    n_rows, n_cols = sq_dists.shape
    if k >= n_cols:
        return np.argsort(sq_dists, axis=1, kind="stable")[:, :k]
    out = np.empty((n_rows, k), dtype=np.intp)
    for start in range(0, n_rows, ROW_BLOCK):
        block = sq_dists[start : start + ROW_BLOCK]
        sel = np.argpartition(block, k - 1, axis=1)[:, :k]
        vals = np.take_along_axis(block, sel, axis=1)
        # lexsort's last key is the primary one: by distance, then index
        sel = np.take_along_axis(sel, np.lexsort((sel, vals), axis=1), axis=1)
        kth = np.take_along_axis(block, sel[:, -1:], axis=1)
        # exactly k entries <= the k-th distance means no tie crosses the
        # cut; a NaN k-th distance counts zero and falls through as well
        unsettled = np.flatnonzero((block <= kth).sum(axis=1) != k)
        if unsettled.size:
            full = np.argsort(block[unsettled], axis=1, kind="stable")
            sel[unsettled] = full[:, :k]
        out[start : start + block.shape[0]] = sel
    return out


def _knn_order(train_u, eval_u, k_max):
    sq_dists = pairwise_sq_dists(np.asarray(eval_u, dtype=float), train_u)
    return nearest_order(sq_dists, k_max)


def knn_predict(train_u, train_phi, eval_u, k):
    """Mean of each target column over the k nearest training points."""
    train_u, train_phi = _check_training(train_u, train_phi)
    if not 1 <= k <= train_u.shape[0]:
        raise ValueError(f"k must be in [1, {train_u.shape[0]}], got {k}")
    order = _knn_order(train_u, eval_u, k)
    b_hat = train_phi[order].mean(axis=1)
    return CoefficientPredictions(b_hat=b_hat)


def knn_predict_grid(train_u, train_phi, eval_u, ks):
    """knn_predict for several k, sharing one neighbor ordering.

    Prefix means over the sorted neighbor axis are accumulated with a
    running sum, which is exactly the mean over the first k neighbors.
    """
    train_u, train_phi = _check_training(train_u, train_phi)
    ks = [int(k) for k in ks]
    if any(k < 1 or k > train_u.shape[0] for k in ks):
        raise ValueError(f"all k must be in [1, {train_u.shape[0]}], got {ks}")
    k_max = max(ks)
    order = _knn_order(train_u, eval_u, k_max)
    sorted_phi = train_phi[order]  # (n_eval, k_max, n_targets)
    cums = np.cumsum(sorted_phi, axis=1)
    return [CoefficientPredictions(b_hat=cums[:, k - 1, :] / k) for k in ks]


def default_k_grid(n_train):
    """Candidate neighbor counts: octave ladder plus sqrt(n), deduplicated."""
    if n_train < 1:
        raise ValueError("empty training set")
    ks = [5, 10, 20, 40, 80, int(round(np.sqrt(n_train)))]
    ks = sorted({min(max(k, 1), n_train) for k in ks})
    return ks


def k_candidates(k_grid, n_train):
    """The neighbor counts to try: default_k_grid when k_grid is None.

    From an explicit grid, each k larger than the training size is
    skipped with a warning; nonpositive k and a grid left empty are
    errors.
    """
    if k_grid is None:
        return default_k_grid(n_train)
    kept = []
    for k in k_grid:
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > n_train:
            warnings.warn(
                f"skipping k={k}: larger than the {n_train} training rows",
                RuntimeWarning,
            )
            continue
        kept.append(k)
    if not kept:
        raise ValueError("no usable k candidates after filtering")
    return kept


# ---------------------------------------------------------------------------
# LASSO via cyclic coordinate descent
# ---------------------------------------------------------------------------


def soft_threshold(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


@dataclass
class LassoModel:
    """Per-target linear fits sharing one covariate standardization.

    ``coef`` is in raw covariate units, ``coef_std`` in standardized
    units (used for importance scores); columns index targets.
    """

    intercept: np.ndarray
    coef: np.ndarray
    coef_std: np.ndarray
    lam: float
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    converged: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))
    n_iter: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def predict(self, eval_u):
        eval_u = np.asarray(eval_u, dtype=float)
        return CoefficientPredictions(b_hat=eval_u @ self.coef + self.intercept)


def _standardize(train_u):
    mu = train_u.mean(axis=0)
    scale = train_u.std(axis=0)
    constant = scale == 0.0
    scale = np.where(constant, 1.0, scale)
    x = (train_u - mu) / scale
    return x, mu, scale


def _cd_solve(gram, cov, lam, beta0, max_iter, tol):
    """Coordinate descent on all target columns at once.

    gram: (d, d) = X'X/n on standardized X; cov: (d, T) = X'yc/n.
    Each target column evolves independently; columns whose largest
    coefficient update in a full cycle drops below tol are frozen, so
    results match running each column to convergence on its own.
    """
    d, n_targets = cov.shape
    beta = beta0.copy()
    active = np.ones(n_targets, dtype=bool)
    n_iter = np.zeros(n_targets, dtype=int)
    diag = np.diag(gram)
    for _ in range(max_iter):
        idx = np.where(active)[0]
        if idx.size == 0:
            break
        sub = beta[:, idx]
        max_delta = np.zeros(idx.size)
        for j in range(d):
            gjj = diag[j]
            if gjj <= 0.0:
                continue
            rho = cov[j, idx] - gram[j] @ sub + gjj * sub[j]
            new = soft_threshold(rho, lam) / gjj
            np.maximum(max_delta, np.abs(new - sub[j]), out=max_delta)
            sub[j] = new
        beta[:, idx] = sub
        n_iter[idx] += 1
        active[idx[max_delta < tol]] = False
    return beta, ~active, n_iter


def lasso_fit(
    train_u, train_phi, lam, max_iter=10000, tol=1e-7, warm_start=None
):
    """Fit one LASSO model per target column at a shared penalty.

    The objective for each column is (1/2n)||yc - Xb||^2 + lam*||b||_1
    with X standardized (population std) and yc centered; the intercept
    absorbs the target mean and is never penalized. Constant covariate
    columns get zero coefficients. Non-convergence in ``max_iter``
    cycles is a warning, not an error.
    """
    train_u, train_phi = _check_training(train_u, train_phi)
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    n, d = train_u.shape
    x, mu, scale = _standardize(train_u)
    ybar = train_phi.mean(axis=0)
    yc = train_phi - ybar
    gram = (x.T @ x) / n
    cov = (x.T @ yc) / n
    beta0 = np.zeros_like(cov) if warm_start is None else warm_start
    beta, converged, n_iter = _cd_solve(gram, cov, lam, beta0, max_iter, tol)
    if not converged.all():
        warnings.warn(
            f"lasso did not converge for {int((~converged).sum())} target "
            f"column(s) in {max_iter} cycles at lam={lam:g}",
            RuntimeWarning,
        )
    coef = beta / scale[:, None]
    intercept = ybar - mu @ coef
    return LassoModel(
        intercept=intercept,
        coef=coef,
        coef_std=beta,
        lam=float(lam),
        feature_mean=mu,
        feature_scale=scale,
        converged=converged,
        n_iter=n_iter,
    )


def lasso_path(train_u, train_phi, lams):
    """Fit a decreasing penalty path with warm starts, at lasso_fit's defaults."""
    lams = list(lams)
    if any(lams[i] < lams[i + 1] for i in range(len(lams) - 1)):
        raise ValueError("penalty path must be non-increasing")
    models = []
    warm = None
    for lam in lams:
        model = lasso_fit(train_u, train_phi, lam, warm_start=warm)
        warm = model.coef_std
        models.append(model)
    return models


def default_lambda_grid(train_u, train_phi, n_candidates=10, ratio=1e-4):
    """Log-spaced penalties from the smallest lam that zeroes every slope.

    lam_max = max_j,c |x_j' (y_c - mean(y_c))| / n on standardized
    covariates; at that value the zero vector is stationary for every
    target, so the path starts fully sparse and relaxes.
    """
    train_u, train_phi = _check_training(train_u, train_phi)
    n = train_u.shape[0]
    x, _, _ = _standardize(train_u)
    yc = train_phi - train_phi.mean(axis=0)
    lam_max = float(np.abs(x.T @ yc).max() / n)
    if lam_max <= 0.0 or not np.isfinite(lam_max):
        raise DataError("all targets are constant; penalty grid is undefined")
    return np.geomspace(lam_max, lam_max * ratio, n_candidates)
