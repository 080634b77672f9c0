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

``BACKENDS`` = {"nw": NadarayaWatsonModel, "knn": KnnModel, "lasso":
LassoModel} is the one table of backends. Each class states its
``hyper_name`` (the field holding its hyperparameter), whether it
``scores_from_coefficients`` (else importance is by permutation), its
``candidates`` (the default grid, or a given one cleaned), its validation
``sweep`` over them, which returns (predictions, the candidates' models if
it fitted them, else None), and how it ``build``s the winner on the fit rows.

nw reads distances through one pass over ROW_BLOCK query rows at a time
(``distance_blocks``), whose scratch is ROW_BLOCK * n_train values, so
memory grows with n_train, not n_eval * n_train. Every consumer drops a
block before it asks for the next, so one block is alive at a time. The
training rows' squared norms, one term of every distance, are computed
once per pass, not once per block. A one-row tail block goes through BLAS
gemv, which can round differently from the gemm of larger blocks. The
fit's sweep over radii (``nw_predict_grid``) sums nested rings: each
training point within the largest radius lies in one ring between
consecutive radii, so one sparse product per SLICE_ROWS query rows and a
cumulative sum over rings give every radius's sums.
It adds in another order than ``nw_predict``'s dense mask product, so
the two agree to rounding, with the same neighbors, counts and
fallbacks. ``nw_predict``, which serves predictions, keeps the dense
product, so predicted densities and everything derived from them keep
their bits.

knn and the NNKCDE baseline (a knn average of kernel rows) take their
neighbors from ``knn_order``. With at most TREE_MAX_DIM covariates, at
least ROW_BLOCK query rows and k < n_train, it queries a k-d tree for
k + 1 neighbors per row, in n_eval * (k + 1) memory, and keeps a row's
tree order only when its distance gaps exceed a derived rounding bound,
which certifies the order the blocked pass would give. Ties, near ties
and every other query set go through the blocked pass, so the order, and
every output bit, is the blocked pass's either way.

Each block's distances come from one ``pairwise_sq_dists`` call on the
caller's thread, which also computes the block's product a @ b.T whole
there; the finishing pass (doubling, subtracting from the norm sum,
clipping) runs in slices of SLICE_ROWS rows on the row threads. The
per-row work after them, ``nw_predict_grid``'s rings, ``knn_order``'s
``nearest_order`` and ``nw_predict``'s neighbor masks and counts in
slices of SLICE_ROWS rows, and ``neighbor_means``,
knn's average and NNKCDE's over its kernel rows, in slices of
max(1, SLICE_ELEMS // width) rows (about SLICE_ELEMS values, 256 KB, that
stay in cache), go through ``split_rows``: it hands contiguous runs of
slices to at most ROW_THREADS threads, the CPUs the process may run on
(the k-d tree query uses as many). The caller's thread runs the first
run; the others start for that call and are joined before it returns,
and BLAS thread settings do not govern them. Each slice writes its own
rows in place, and a row's result depends on that row alone, so every
output has the same bits for any thread count and slice size. A block
still holds ROW_BLOCK rows' distances, and the threads' temporaries
together cover no more rows than the block. ``nw_predict`` writes each
slice's 0/1 mask over its distances in place, then multiplies the whole
block by train_phi on the caller's thread: that product, like the
distance product, rounds by the block's row count, so it stays one call
per block. A block of one slice (every single-row forecast) starts no
thread.

A fitted nw or knn model (the NNKCDE baseline likewise) is frozen and,
when a fit or a model-file load builds it, checks its training arrays and
hyperparameter and computes the squared training norms once. ``predict``
hands those norms to the distance code, so a call computes only what
depends on the query rows, and every output keeps its bits.

scipy loads on first use: ``nw_predict_grid`` imports ``scipy.sparse`` and
``_tree_order`` ``scipy.spatial``, so an nw prediction, a lasso fit or a
knn query that makes no tree query starts on numpy alone.
"""

import os
import threading
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from flexts.errors import DataError

# query rows per distance_blocks block: its scratch is ROW_BLOCK * n_train values
ROW_BLOCK = 256
# query rows per slice of a block's temporaries (the norm sum in
# pairwise_sq_dists, nw_predict_grid's ring indicator), which stay
# SLICE_ROWS * n_train values, much smaller than the block's distances
SLICE_ROWS = 32
# values per row slice of neighbor_means and NNKCDE's kernel_means (256 KB
# of floats, which stay in cache): max(1, SLICE_ELEMS // width) rows a slice
SLICE_ELEMS = 32 * 1024
# threads that share split_rows' slices: the CPUs this process may run on
ROW_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

# Most covariate columns for which knn_order queries a k-d tree. Tree
# against blocked knn_order (arma_jump lag designs, 1 BLAS thread; the
# validation rows at n_train 3.5k, the test rows at 1.4k and 2.1k):
#
#   n_train   d = 3   d = 5   d = 8   d = 12
#   1.4k      tree    tree    -       -
#   2.1k      tree    tree    -       -
#   3.5k      tree    tree    blocked -
#   14k       tree    tree    tree    tree
#
# ("tree": the tree is faster; "-": not measured.) At n_train 1.4k and
# 2.1k the two tie at d = 6; at 14k the tree stops winning near d = 15.
TREE_MAX_DIM = 5


def sq_norms(x):
    """Squared Euclidean norm of each row of a 2-d float array."""
    return (x * x).sum(axis=1)


def pairwise_sq_dists(a, b, b_norms=None):
    """Squared Euclidean distances between rows of a (n, d) and b (m, d).

    Each entry is (|a_i|^2 + |b_j|^2) - 2 a_i.b_j, clipped at zero. The
    product a @ b.T is one call on the caller's thread, since its bits
    depend on the row count it is given. The finishing pass (doubling it,
    subtracting it from the norm sum and clipping) works in the product's
    buffer, SLICE_ROWS rows a slice, on the row threads (``split_rows``);
    a block of at most SLICE_ROWS rows, such as every single-row forecast,
    finishes on the caller's thread. ``b_norms``, if given, is
    ``sq_norms(b)`` computed once by the caller.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = a @ b.T
    a2 = sq_norms(a)
    b2 = sq_norms(b) if b_norms is None else b_norms

    def finish(lo, hi):
        part = sq[lo:hi]
        part *= 2.0
        np.subtract(a2[lo:hi, None] + b2, part, out=part)
        np.maximum(part, 0.0, out=part)

    if a.shape[0] <= SLICE_ROWS:
        finish(0, a.shape[0])
    else:
        split_rows(a.shape[0], SLICE_ROWS, finish)
    return sq


def distance_blocks(train_u, eval_u, skip=None, train_norms=None):
    """Yield (rows, squared distances to train_u) per ROW_BLOCK rows of eval_u.

    Rows where the boolean array ``skip`` is true are left out, and a block
    of skipped rows only is not computed. A block with some rows left out
    is still computed whole, so each row's distances carry the same bits
    whichever rows around it are skipped; the kept rows are yielded as a
    copy, and the whole block is freed before that. ``train_norms`` is
    ``sq_norms(train_u)``, computed here once for every block if not given.
    Each block is computed by one ``pairwise_sq_dists`` call on the
    caller's thread. Nothing here holds a block once it is yielded, so a
    caller that drops its block before asking for the next keeps one
    block alive at a time.
    """
    train_u = np.asarray(train_u, dtype=float)
    eval_u = np.asarray(eval_u, dtype=float)
    if train_norms is None:
        train_norms = sq_norms(train_u)
    for start in range(0, eval_u.shape[0], ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        if skip is None or not skip[rows].any():
            yield rows, pairwise_sq_dists(eval_u[rows], train_u, train_norms)
        elif not skip[rows].all():
            keep = np.flatnonzero(~skip[rows])
            yield start + keep, pairwise_sq_dists(eval_u[rows], train_u,
                                                  train_norms)[keep]


def split_rows(n_rows, step, work):
    """work(lo, hi) on slices of ``step`` rows covering n_rows rows.

    Contiguous runs of slices, at most ROW_THREADS of them, go to threads
    started for this call and joined before it returns; the caller's
    thread runs the first run, so one slice starts no thread. ``work``
    must write only to its own rows and each row's result must depend on
    that row alone: then the results are the same bits for any ROW_THREADS
    and any step. An exception in any run is raised here once all are done.
    """
    starts = range(0, n_rows, step)
    per_run = max(1, -(-len(starts) // ROW_THREADS))
    runs = [starts[i : i + per_run] for i in range(0, len(starts), per_run)]
    errors = []

    def run(firsts):
        try:
            for lo in firsts:
                work(lo, min(lo + step, n_rows))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(firsts,)) for firsts in runs[1:]]
    for thread in threads:
        thread.start()
    if runs:
        run(runs[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def check_training(train_u, targets, target_ndim=2):
    """Training covariates and targets as float arrays, or a ValueError.

    ``train_u`` must be 2-d and ``targets`` (a coefficient regression's
    basis rows, NNKCDE's responses) ``target_ndim``-d, with as many rows,
    at least one, and every value finite.
    """
    train_u = np.asarray(train_u, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if train_u.ndim != 2:
        raise ValueError(f"train_u must be 2-d, got shape {train_u.shape}")
    if targets.ndim != target_ndim:
        raise ValueError(
            f"training targets must be {target_ndim}-d, got shape {targets.shape}"
        )
    if train_u.shape[0] != targets.shape[0]:
        raise ValueError(
            f"row mismatch: {train_u.shape[0]} covariate rows vs "
            f"{targets.shape[0]} target rows"
        )
    if train_u.shape[0] == 0:
        raise ValueError("empty training set")
    if not (np.all(np.isfinite(train_u)) and np.all(np.isfinite(targets))):
        raise ValueError("training data contains non-finite values")
    return train_u, targets


def check_k(k, n_train):
    """The neighbor-count rule of knn and NNKCDE: an integer 1 <= k <= n_train."""
    if not float(k).is_integer():  # the neighbor means would truncate 2.5 to 2
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n_train:
        raise ValueError(f"k={k} is outside [1, {n_train}]")


def check_radii(deltas):
    """nw radii (one or several) as a float array, each positive."""
    radii = np.asarray(deltas, dtype=float)
    if not np.all(radii > 0):
        raise ValueError(f"radii must be positive, got {deltas}")
    return radii


def set_prepared(model, **values):
    """Set checked fields and derived values on a frozen model as it is built."""
    for name, value in values.items():
        object.__setattr__(model, name, value)


def check_queries(eval_u, n_features):
    """Query rows as a float array: 2-d, n_features wide and finite."""
    eval_u = np.asarray(eval_u, dtype=float)
    if eval_u.ndim != 2 or eval_u.shape[1] != n_features:
        raise DataError(
            f"query rows must be 2-d with {n_features} columns, got "
            f"shape {eval_u.shape}"
        )
    if not np.all(np.isfinite(eval_u)):
        raise DataError("query rows contain non-finite values")
    return eval_u


@dataclass
class CoefficientPredictions:
    """Predicted target matrix plus sparse-neighborhood diagnostics."""

    b_hat: np.ndarray
    n_fallback: int = 0


# ---------------------------------------------------------------------------
# Nadaraya-Watson (uniform kernel)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NadarayaWatsonModel:
    """nw's training set and radius, checked once, with the training norms."""

    train_u: np.ndarray
    train_phi: np.ndarray
    delta: float

    hyper_name = "delta"
    scores_from_coefficients = False

    def __post_init__(self):
        train_u, train_phi = check_training(self.train_u, self.train_phi)
        check_radii(self.delta)
        set_prepared(self, train_u=train_u, train_phi=train_phi,
                     train_norms=sq_norms(train_u))

    def predict(self, eval_u):
        return nw_predict(self.train_u, self.train_phi, eval_u, self.delta,
                          self.train_norms)

    @staticmethod
    def candidates(hyper_grid, train_u, train_phi):
        """default_delta_grid, or the given radii as floats in their order."""
        if hyper_grid is None:
            return list(default_delta_grid(train_u))
        return [float(h) for h in hyper_grid]

    @staticmethod
    def sweep(train_u, train_phi, eval_u, hypers):
        return nw_predict_grid(train_u, train_phi, eval_u, hypers), None

    @classmethod
    def build(cls, train_u, train_phi, hypers):
        """The model of the last of ``hypers``, the winner, on these rows."""
        return cls(train_u, train_phi, float(hypers[-1]))


def nw_predict(train_u, train_phi, eval_u, delta, train_norms=None):
    """Uniform-kernel local mean of each target column.

    Query points with no training point within ``delta`` fall back to the
    global column means; the count of such rows is reported so callers
    can surface the diagnostic. A NadarayaWatsonModel passes
    ``train_norms``, the norms of the arrays it checked when built;
    without them the arrays and radius are checked here and the norms
    computed for this call.
    """
    if train_norms is None:
        train_u, train_phi = check_training(train_u, train_phi)
        check_radii(delta)
    eval_u = check_queries(eval_u, train_u.shape[1])
    sums = np.empty((eval_u.shape[0], train_phi.shape[1]))
    counts = np.empty(eval_u.shape[0], dtype=np.intp)
    for rows, sq in distance_blocks(train_u, eval_u, train_norms=train_norms):
        if sq.shape[0] <= SLICE_ROWS:  # every single-row forecast
            _mask_in_place(sq, delta, counts[rows], 0, sq.shape[0])
        else:
            split_rows(sq.shape[0], SLICE_ROWS,
                       partial(_mask_in_place, sq, delta, counts[rows]))
        # whole-block product: its bits depend on the block's row count
        sums[rows] = sq @ train_phi
        del sq  # freed before the next block is computed
    return _local_means(sums, counts, train_phi)


def _mask_in_place(sq, delta, counts, lo, hi):
    """Rows lo..hi of squared distances become 1.0 within delta, else 0.0,
    and counts[lo:hi] their sums, exact in floats, the neighbor counts."""
    part = sq[lo:hi]
    np.less_equal(part, delta * delta, out=part)
    counts[lo:hi] = part.sum(axis=1)


def nw_predict_grid(train_u, train_phi, eval_u, deltas):
    """nw_predict for several radii, summed over nested rings.

    The squared radii, sorted and deduplicated, bound the rings: training
    point j is in ring r of query row i when sq[i, j] <= radius_r^2 and
    above the radius before, the same ``<=`` test nw_predict makes, so
    every radius sees the same neighbors, counts and fallbacks. Per
    SLICE_ROWS query rows, one sparse (rings * rows, n_train) indicator
    times train_phi sums each ring and a cumulative sum over the rings
    sums each radius: memory and work grow with the points inside the
    largest radius, not with the number of radii. A point's ring is the
    count of squared radii below its squared distance, counted over all
    but the largest, since only points within the largest are kept. The
    slices of a block are shared among threads (``split_rows``); each
    row's sums depend on that row alone. The order of summation
    differs from nw_predict's dense product, so the means agree to
    rounding, not bit for bit; an empty ring adds exactly 0.
    """
    # deferred: scipy.sparse only for nw's validation sweep
    from scipy import sparse

    train_u, train_phi = check_training(train_u, train_phi)
    eval_u = check_queries(eval_u, train_u.shape[1])
    radii = check_radii(deltas)
    # ring_of maps each given radius, duplicates and order kept, to its ring
    thresholds, ring_of = np.unique(radii * radii, return_inverse=True)
    n_rings, n_train = thresholds.size, train_u.shape[0]
    sums = np.empty((radii.size, eval_u.shape[0], train_phi.shape[1]))
    counts = np.empty(sums.shape[:2], dtype=np.intp)

    def add_rings(sq, first, lo, hi):
        """Ring sums of block rows lo..hi, which are query rows first + lo.."""
        part = sq[lo:hi]
        n_rows = part.shape[0]
        n_keys = n_rings * n_rows
        flat = np.flatnonzero(part <= thresholds[-1])
        vals = part.ravel()[flat]
        row = flat // n_train
        col = flat - row * n_train
        # key = ring * n_rows + row; see the docstring for the ring count
        key = np.zeros(flat.size, dtype=np.intp)
        for t in thresholds[:-1]:
            key += vals > t
        key *= n_rows
        key += row
        indicator = sparse.csr_matrix(
            (np.ones(key.size), (key, col)), shape=(n_keys, n_train)
        )
        ring_sums = (indicator @ train_phi).reshape(n_rings, n_rows, -1)
        ring_counts = np.bincount(key, minlength=n_keys).reshape(n_rings, n_rows)
        out = slice(first + lo, first + hi)
        sums[:, out] = np.cumsum(ring_sums, axis=0)[ring_of]
        counts[:, out] = np.cumsum(ring_counts, axis=0)[ring_of]

    for rows, sq in distance_blocks(train_u, eval_u):
        split_rows(sq.shape[0], SLICE_ROWS, partial(add_rings, sq, rows.start))
        del sq  # freed before the next block is computed
    return [_local_means(s, c, train_phi) for s, c in zip(sums, counts)]


def _local_means(sums, counts, train_phi):
    """Sums over counts per row; a row with no neighbor takes the column means."""
    inside = counts > 0
    sums[inside] /= counts[inside, None]
    n_fallback = int((~inside).sum())
    if n_fallback:
        sums[~inside] = train_phi.mean(axis=0)
    return CoefficientPredictions(b_hat=sums, n_fallback=n_fallback)


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


@dataclass(frozen=True)
class KnnModel:
    """knn's training set and k, checked once, with the training norms."""

    train_u: np.ndarray
    train_phi: np.ndarray
    k: int

    hyper_name = "k"
    scores_from_coefficients = False

    def __post_init__(self):
        train_u, train_phi = check_training(self.train_u, self.train_phi)
        check_k(self.k, train_u.shape[0])
        set_prepared(self, train_u=train_u, train_phi=train_phi,
                     train_norms=sq_norms(train_u))

    def predict(self, eval_u):
        return knn_predict_grid(self.train_u, self.train_phi, eval_u, [self.k],
                                self.train_norms)[0]

    @staticmethod
    def candidates(hyper_grid, train_u, train_phi):
        return k_candidates(hyper_grid, train_u.shape[0])

    @staticmethod
    def sweep(train_u, train_phi, eval_u, hypers):
        return knn_predict_grid(train_u, train_phi, eval_u, hypers), None

    @classmethod
    def build(cls, train_u, train_phi, hypers):
        return cls(train_u, train_phi, int(hypers[-1]))


def nearest_order(sq_dists, k):
    """Column indices of the k smallest entries of each row, nearest first.

    Equal to ``np.argsort(sq_dists, axis=1, kind="stable")[:, :k]``: among
    tied distances the lower training index comes first. The rows are
    partitioned rather than sorted, and only the k selected entries are
    ordered, by (distance, index). A row whose k-th distance also occurs
    outside the selection (or that holds NaN) cannot be settled that way
    and is stably sorted in full.
    """
    if k >= sq_dists.shape[1]:
        return np.argsort(sq_dists, axis=1, kind="stable")[:, :k]
    sel = np.argpartition(sq_dists, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(sq_dists, sel, axis=1)
    # lexsort's last key is the primary one: by distance, then index
    sel = np.take_along_axis(sel, np.lexsort((sel, vals), axis=1), axis=1)
    kth = np.take_along_axis(sq_dists, sel[:, -1:], axis=1)
    # exactly k entries <= the k-th distance means no tie crosses the
    # cut; a NaN k-th distance counts zero and falls through as well
    unsettled = np.flatnonzero((sq_dists <= kth).sum(axis=1) != k)
    if unsettled.size:
        full = np.argsort(sq_dists[unsettled], axis=1, kind="stable")
        sel[unsettled] = full[:, :k]
    return sel


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff 2^-53."""
    u = np.finfo(float).eps / 2.0
    return n * u / (1.0 - n * u)


def _tree_order(train_u, eval_u, k, train_norms):
    """A k-d tree's k nearest training rows per query row, and which it settles.

    A settled row's tree order provably equals ``nearest_order`` on that
    row's ``pairwise_sq_dists`` values, whichever BLAS path rounded them.
    For a query a, a training row b, d columns, D = |a - b|^2 exactly,
    A = |a|^2, B = |b|^2 and gamma_n = n u / (1 - n u) (u = 2^-53):

    * ``pairwise_sq_dists`` gives s with |s - D| <= 2 gamma_{d+2} M, where
      M = A + max_b B. The two norms are within gamma_d of A and B, and
      their sum within gamma_{d+1} of A + B. The product a.b, summed in any
      order with or without FMA, is within gamma_d sum|a_i b_i|, so 2 a.b
      is within gamma_d (A + B). The subtraction rounds a value of at most
      2 (A + B) (1 + gamma_{d+1}), since D <= 2 (A + B), and the clip at 0
      only moves s toward D >= 0.
    * The tree sums d rounded squares of rounded differences, within
      gamma_{d+2} D. It returns the rounded square root, which squared
      here gives q with |q - D| <= gamma_{d+5} D. The bound it prunes a
      subtree by sums side distances (each within gamma_3) updated by one
      subtraction and one addition per level, so it is within gamma_{2L+3}
      of a value <= D of every row below, L the depth, at most the node
      count ``tree.size``. Each training row outside the k + 1 returned was
      either rejected on its own distance or pruned on a bound above the
      (k+1)-th distance, so its D >= q_{k+1} (1 - gamma_{2L+2d+10}).

    With beta = 2 gamma_{d+2} M + gamma_{2L+2d+10} q_{k+1}, each returned
    row has |s - q| <= beta and each other row has s >= q_{k+1} - beta. If
    every gap q_{j+1} - q_j (j = 1..k) exceeds 2 beta, the returned rows'
    s strictly increase in tree order and every other row's s exceeds the
    k-th's, so the stable argsort of s starts with the tree's first k, in
    the same order. beta is doubled to absorb its own rounding. Ties, near
    ties and non-finite distances fail the check; ``train_u`` must be
    finite, as ``cKDTree`` requires.
    """
    # deferred: scipy.spatial (and the sparse, linalg and special it loads)
    # only for a tree query
    from scipy.spatial import cKDTree

    tree = cKDTree(train_u)
    q, order = tree.query(eval_u, k + 1, workers=ROW_THREADS)
    np.square(q, out=q)
    d = train_u.shape[1]
    m = sq_norms(eval_u) + train_norms.max()
    beta = 2.0 * (
        2.0 * _gamma(d + 2) * m + _gamma(2 * tree.size + 2 * d + 10) * q[:, -1]
    )
    with np.errstate(invalid="ignore"):
        settled = (np.diff(q, axis=1) > 2.0 * beta[:, None]).all(axis=1)
    return order[:, :k], settled


def knn_order(train_u, eval_u, k, train_norms=None):
    """Each query row's k (<= n_train) nearest training rows, by nearest_order.

    With at most TREE_MAX_DIM columns, at least ROW_BLOCK query rows,
    k < n_train and finite training rows, a k-d tree orders the rows whose
    order it can certify (``_tree_order``), in n_eval * (k + 1) memory. The
    other rows, and every row otherwise, go through ``distance_blocks``.
    ``train_norms`` is ``sq_norms(train_u)``, computed here if not given.
    """
    train_u = np.asarray(train_u, dtype=float)
    eval_u = check_queries(eval_u, train_u.shape[1])
    if train_norms is None:
        train_norms = sq_norms(train_u)
    settled = None
    if (
        eval_u.shape[1] <= TREE_MAX_DIM
        and eval_u.shape[0] >= ROW_BLOCK
        and 0 < k < train_u.shape[0]
        and np.all(np.isfinite(train_u))
    ):
        order, settled = _tree_order(train_u, eval_u, k, train_norms)
    else:
        order = np.empty((eval_u.shape[0], k), dtype=np.intp)
    for rows, sq in distance_blocks(train_u, eval_u, settled, train_norms):
        block = np.empty((sq.shape[0], k), dtype=np.intp)
        split_rows(sq.shape[0], SLICE_ROWS, partial(_order_rows, sq, k, block))
        del sq  # freed before the next block is computed
        order[rows] = block
    return order


def _order_rows(sq, k, out, lo, hi):
    """out[lo:hi] = nearest_order of rows lo..hi of squared distances."""
    out[lo:hi] = nearest_order(sq[lo:hi], k)


def neighbor_means(train_phi, order, ks, scale=1.0):
    """Mean of train_phi's rows over each order row's first k, per k in ks.

    Each mean is (total / k) / ``scale``, where a row's total adds its
    neighbors one rank at a time: a sequential sum, over k. The outputs,
    one per entry of ks, are allocated here; the rows are summed in slices
    of about SLICE_ELEMS values on the row threads (``split_rows``), each
    slice with a running total of its own.
    """
    n_rows, width = order.shape[0], train_phi.shape[1]
    means = [np.empty((n_rows, width)) for _ in ks]

    def add(lo, hi):
        total = train_phi[order[lo:hi, 0]]  # fancy indexing copies
        rank_rows = np.empty_like(total)
        for k in range(1, max(ks) + 1):
            if k > 1:
                # order's indices are in range; mode "raise" (the default)
                # would gather into a buffer and then copy it to rank_rows
                train_phi.take(order[lo:hi, k - 1], axis=0, out=rank_rows,
                               mode="wrap")
                total += rank_rows
            for want, out in zip(ks, means):
                if want == k:
                    part = out[lo:hi]
                    np.divide(total, k, out=part)
                    part /= scale

    split_rows(n_rows, max(1, SLICE_ELEMS // width), add)
    return means


def knn_predict(train_u, train_phi, eval_u, k):
    """Mean of each target column over the k nearest training points."""
    return knn_predict_grid(train_u, train_phi, eval_u, [k])[0]


def knn_predict_grid(train_u, train_phi, eval_u, ks, train_norms=None):
    """knn_predict for several k, sharing one neighbor ordering.

    A KnnModel passes ``train_norms``, the norms of the arrays it checked
    when built; without them the arrays are checked here.
    """
    if train_norms is None:
        train_u, train_phi = check_training(train_u, train_phi)
    ks = [int(k) for k in ks]
    for k in ks:
        check_k(k, train_u.shape[0])
    order = knn_order(train_u, eval_u, max(ks), train_norms)
    means = neighbor_means(train_phi, order, ks)
    return [CoefficientPredictions(b_hat=b_hat) for b_hat in means]


def default_k_grid(n_train):
    """Candidate neighbor counts: octave ladder plus sqrt(n), deduplicated."""
    if n_train < 1:
        raise ValueError("empty training set")
    ks = [5, 10, 20, 40, 80, int(round(np.sqrt(n_train)))]
    return sorted({min(max(k, 1), n_train) for k in ks})


def k_candidates(k_grid, n_train):
    """The neighbor counts to try: default_k_grid when k_grid is None.

    From an explicit grid, each k larger than the training size is
    skipped with a warning; a non-integral or nonpositive k and a grid
    left empty are errors.
    """
    if k_grid is None:
        return default_k_grid(n_train)
    kept = []
    for k in k_grid:
        if not (float(k).is_integer() and k >= 1):  # int() would truncate 2.5
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        k = int(k)
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


@dataclass(frozen=True)
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

    hyper_name = "lam"
    scores_from_coefficients = True

    def __post_init__(self):
        check_penalty(self.lam)
        if np.ndim(self.coef) != 2:
            raise ValueError(f"coef must be 2-d, got shape {np.shape(self.coef)}")
        d, n_targets = np.shape(self.coef)
        for name, shape in (("intercept", (n_targets,)), ("coef", (d, n_targets)),
                            ("coef_std", (d, n_targets)), ("feature_mean", (d,)),
                            ("feature_scale", (d,))):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape or not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite floats of shape {shape}, "
                                 f"got shape {value.shape}")
            set_prepared(self, **{name: value})

    def predict(self, eval_u):
        eval_u = np.asarray(eval_u, dtype=float)
        return CoefficientPredictions(b_hat=eval_u @ self.coef + self.intercept)

    @staticmethod
    def candidates(hyper_grid, train_u, train_phi):
        """default_lambda_grid, or the given penalties sorted descending."""
        if hyper_grid is None:
            return list(default_lambda_grid(train_u, train_phi))
        return sorted((check_penalty(lam) for lam in hyper_grid), reverse=True)

    @staticmethod
    def sweep(train_u, train_phi, eval_u, hypers):
        models = lasso_path(train_u, train_phi, hypers)
        return [m.predict(eval_u) for m in models], models

    @staticmethod
    def build(train_u, train_phi, hypers):
        """The last of ``hypers`` at the end of the warm-started path to it."""
        return lasso_path(train_u, train_phi, hypers)[-1]


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


def check_penalty(lam):
    """A lasso penalty as a float, nonnegative and finite."""
    lam = float(lam)
    if not 0 <= lam < np.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    return lam


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
    train_u, train_phi = check_training(train_u, train_phi)
    lam = check_penalty(lam)
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
    return LassoModel(intercept=intercept, coef=coef, coef_std=beta, lam=lam,
                      feature_mean=mu, feature_scale=scale, converged=converged,
                      n_iter=n_iter)


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
    train_u, train_phi = check_training(train_u, train_phi)
    n = train_u.shape[0]
    x, _, _ = _standardize(train_u)
    yc = train_phi - train_phi.mean(axis=0)
    lam_max = float(np.abs(x.T @ yc).max() / n)
    if lam_max <= 0.0 or not np.isfinite(lam_max):
        raise DataError("all targets are constant; penalty grid is undefined")
    return np.geomspace(lam_max, lam_max * ratio, n_candidates)


# the backend table: each kind's model class, which states the rest
BACKENDS = {"nw": NadarayaWatsonModel, "knn": KnnModel, "lasso": LassoModel}
BACKEND_KINDS = tuple(BACKENDS)
HYPER_NAMES = {kind: cls.hyper_name for kind, cls in BACKENDS.items()}
