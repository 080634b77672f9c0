"""Coefficient regressions: local averaging, kNN, and LASSO."""

import contextlib
import dataclasses
import os
import signal
import threading
import time
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexts import baselines, regression
from flexts.baselines import SQRT_2PI, kernel_means, nnkcde_fit
from flexts.errors import DataError
from flexts.estimator import FitConfig, density_rows, fit
from flexts.features import SeriesTable, lag_embed
from flexts.regression import (
    BACKENDS,
    ROW_BLOCK,
    SLICE_ROWS,
    TREE_MAX_DIM,
    LassoModel,
    default_delta_grid,
    default_k_grid,
    default_lambda_grid,
    distance_blocks,
    knn_order,
    knn_predict,
    knn_predict_grid,
    lasso_fit,
    lasso_path,
    nearest_order,
    nw_predict,
    nw_predict_grid,
    pairwise_sq_dists,
    soft_threshold,
    split_rows,
    sq_norms,
)
from flexts.scenarios import generate


def random_problem(seed, n=120, d=3, n_targets=4, n_eval=7):
    rng = np.random.default_rng(seed)
    train_u = rng.normal(size=(n, d))
    train_phi = rng.normal(size=(n, n_targets))
    eval_u = rng.normal(size=(n_eval, d))
    return train_u, train_phi, eval_u


def test_pairwise_sq_dists_matches_one_shot_formula():
    rng = np.random.default_rng(30)
    for n_rows in [1, 3, 31, 32, 33, 37, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 37]:
        a = rng.normal(size=(n_rows, 3))
        b = rng.normal(size=(90, 3))
        b[5] = a[0]  # an exact zero distance
        one_shot = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        one_shot -= 2.0 * (a @ b.T)
        np.maximum(one_shot, 0.0, out=one_shot)
        assert np.array_equal(pairwise_sq_dists(a, b), one_shot), n_rows
        # the prepared-norm path: norms computed once by the caller
        assert np.array_equal(pairwise_sq_dists(a, b, sq_norms(b)), one_shot), n_rows
        # distance_blocks' norms, once per pass, give each block the same bits
        prepared = [sq for _, sq in distance_blocks(b, a, train_norms=sq_norms(b))]
        per_block = [pairwise_sq_dists(a[i : i + ROW_BLOCK], b)
                     for i in range(0, n_rows, ROW_BLOCK)]
        assert np.array_equal(np.vstack(prepared), np.vstack(per_block)), n_rows


def test_models_check_their_training_side_once_when_built():
    train_u, train_phi, eval_u = random_problem(31, n=ROW_BLOCK + 40)
    nw = regression.NadarayaWatsonModel(train_u, train_phi, 0.8)
    knn = regression.KnnModel(train_u, train_phi, 7)
    assert np.array_equal(nw.train_norms, (train_u * train_u).sum(axis=1))
    for n_eval in (1, ROW_BLOCK + 1):
        u = np.vstack([eval_u] * (n_eval // len(eval_u) + 1))[:n_eval]
        for model, fresh in ((nw, nw_predict(train_u, train_phi, u, 0.8)),
                             (knn, knn_predict(train_u, train_phi, u, 7))):
            got = model.predict(u)
            assert got.b_hat.tobytes() == fresh.b_hat.tobytes()
            assert got.n_fallback == fresh.n_fallback
    bad_u = train_u.copy()
    bad_u[3, 1] = np.nan
    for build in (lambda: regression.NadarayaWatsonModel(bad_u, train_phi, 0.8),
                  lambda: regression.KnnModel(bad_u, train_phi, 7)):
        with pytest.raises(ValueError, match="non-finite"):
            build()
    for delta in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="positive"):
            regression.NadarayaWatsonModel(train_u, train_phi, delta)
    for k in (0, len(train_u) + 1):
        with pytest.raises(ValueError, match="outside"):
            regression.KnnModel(train_u, train_phi, k)
    with pytest.raises(ValueError, match="k must be an integer"):
        regression.KnnModel(train_u, train_phi, 2.5)  # would predict as k=2
    with pytest.raises(dataclasses.FrozenInstanceError):
        nw.train_u = bad_u


# ---------------------------------------------------------------------------
# Nadaraya-Watson
# ---------------------------------------------------------------------------


def test_nw_radius_covering_everything_gives_global_mean():
    train_u, train_phi, eval_u = random_problem(0)
    diameter = np.sqrt(pairwise_sq_dists(train_u, train_u).max())
    out = nw_predict(train_u, train_phi, eval_u, delta=10 * diameter)
    np.testing.assert_allclose(
        out.b_hat, np.tile(train_phi.mean(axis=0), (len(eval_u), 1)), rtol=1e-12
    )
    assert out.n_fallback == 0


def test_nw_single_neighbor():
    out = nw_predict([[0.0], [1.0]], [[2.0], [4.0]], [[0.1]], delta=0.2)
    assert out.b_hat[0, 0] == 2.0
    assert out.n_fallback == 0


def test_nw_empty_neighborhood_falls_back_to_global_mean():
    out = nw_predict([[0.0], [1.0]], [[2.0], [4.0]], [[0.5]], delta=0.01)
    assert out.b_hat[0, 0] == 3.0
    assert out.n_fallback == 1


def test_nw_matches_bruteforce():
    train_u, train_phi, eval_u = random_problem(1)
    delta = 1.2
    out = nw_predict(train_u, train_phi, eval_u, delta)
    n_empty = 0
    for r in range(len(eval_u)):
        dist = np.sqrt(((train_u - eval_u[r]) ** 2).sum(axis=1))
        members = train_phi[dist <= delta]
        if len(members) == 0:
            members = train_phi  # the documented fallback
            n_empty += 1
        np.testing.assert_allclose(out.b_hat[r], members.mean(axis=0), rtol=1e-10)
    assert out.n_fallback == n_empty


def test_nw_prediction_is_local():
    # moving a training point outside the radius cannot change the answer
    train_u, train_phi, eval_u = random_problem(2)
    delta = 0.8
    base = nw_predict(train_u, train_phi, eval_u[:1], delta)
    far = train_u.copy()
    dist = np.sqrt(((train_u - eval_u[0]) ** 2).sum(axis=1))
    far[np.argmax(dist)] += 100.0
    moved = nw_predict(far, train_phi, eval_u[:1], delta)
    np.testing.assert_array_equal(base.b_hat, moved.b_hat)


# (query count, rows also predicted alone): 2 * ROW_BLOCK + 3 queries span
# three row blocks, and rows ROW_BLOCK - 2 to ROW_BLOCK straddle the first
# block boundary
CROSSTALK_CASES = [
    (7, slice(0, 3)),
    (2 * ROW_BLOCK + 3, slice(0, 3)),
    (2 * ROW_BLOCK + 3, slice(ROW_BLOCK - 2, ROW_BLOCK + 1)),
]


def test_nw_no_eval_crosstalk():
    train_u, train_phi, eval_u = random_problem(3, n_eval=2 * ROW_BLOCK + 3)
    for n_eval, part in CROSSTALK_CASES:
        padded = nw_predict(train_u, train_phi, eval_u[:n_eval], 0.9)
        alone = nw_predict(train_u, train_phi, eval_u[part], 0.9)
        np.testing.assert_array_equal(alone.b_hat, padded.b_hat[part])


def assert_nw_grid_matches_single_calls(train_u, train_phi, eval_u, deltas):
    """nw_predict_grid against one nw_predict per radius.

    The grid sums rings, so its means agree to rounding; with integer
    targets every sum is exact in any order, which makes the two bitwise
    equal exactly when each radius's neighbor counts are.
    """
    integral = np.round(8.0 * train_phi)
    for phi in (train_phi, integral):
        grid = nw_predict_grid(train_u, phi, eval_u, deltas)
        assert len(grid) == len(deltas)
        for delta, out in zip(deltas, grid):
            single = nw_predict(train_u, phi, eval_u, delta)
            assert out.n_fallback == single.n_fallback
            if phi is integral:
                np.testing.assert_array_equal(out.b_hat, single.b_hat)
            else:
                np.testing.assert_allclose(out.b_hat, single.b_hat, rtol=1e-12,
                                           atol=1e-12 * np.abs(phi).max())


def test_nw_grid_matches_single_calls():
    train_u, train_phi, eval_u = random_problem(4, n_eval=2 * ROW_BLOCK + 3)
    for deltas in [[0.3, 0.9, 2.7], [0.9, 0.3, 0.9]]:
        assert_nw_grid_matches_single_calls(train_u, train_phi, eval_u, deltas)
    # a repeated radius gets its own, equal array
    grid = nw_predict_grid(train_u, train_phi, eval_u, [0.9, 0.3, 0.9])
    assert not np.shares_memory(grid[0].b_hat, grid[2].b_hat)
    np.testing.assert_array_equal(grid[0].b_hat, grid[2].b_hat)
    # on a lattice many squared distances equal a squared radius exactly
    lattice_u, lattice_eval = np.round(2 * train_u), np.round(2 * eval_u)
    assert_nw_grid_matches_single_calls(lattice_u, train_phi, lattice_eval,
                                        [2.0, 1.0, 3.0])


def test_nw_grid_below_every_distance_and_above_the_diameter():
    train_u, train_phi, eval_u = random_problem(4, n_eval=2 * ROW_BLOCK + 3)
    closest = np.sqrt(min(sq.min() for _, sq in distance_blocks(train_u, eval_u)))
    points = np.vstack([train_u, eval_u])
    diameter = np.sqrt(pairwise_sq_dists(points, points).max())
    deltas = [closest / 2, 2 * diameter]
    assert_nw_grid_matches_single_calls(train_u, train_phi, eval_u, deltas)
    below, above = nw_predict_grid(train_u, train_phi, eval_u, deltas)
    assert below.n_fallback == len(eval_u) and above.n_fallback == 0
    mean = train_phi.mean(axis=0)
    np.testing.assert_array_equal(below.b_hat, np.tile(mean, (len(eval_u), 1)))
    np.testing.assert_allclose(above.b_hat, np.tile(mean, (len(eval_u), 1)),
                               rtol=1e-12, atol=1e-12 * np.abs(train_phi).max())


def test_nw_constant_first_target_stays_one():
    train_u, train_phi, eval_u = random_problem(5)
    train_phi[:, 0] = 1.0
    out = nw_predict(train_u, train_phi, eval_u, 0.9)
    np.testing.assert_array_equal(out.b_hat[:, 0], np.ones(len(eval_u)))


def test_nw_rejects_bad_delta():
    train_u, train_phi, eval_u = random_problem(6)
    with pytest.raises(ValueError):
        nw_predict(train_u, train_phi, eval_u, 0.0)
    # a NaN radius is not positive either; in the grid it would sort last
    # and bound every ring
    with pytest.raises(ValueError, match="positive"):
        nw_predict(train_u, train_phi, eval_u, np.nan)
    with pytest.raises(ValueError, match="positive"):
        nw_predict_grid(train_u, train_phi, eval_u, [0.5, np.nan])


def test_default_delta_grid_shape():
    train_u, _, _ = random_problem(7, n=700)
    deltas = default_delta_grid(train_u)
    assert len(deltas) == 8
    assert np.all(np.diff(deltas) > 0) and deltas[0] > 0
    assert deltas[-1] / deltas[0] == pytest.approx(16.0, rel=1e-12)
    with pytest.raises(DataError):
        default_delta_grid(np.zeros((40, 2)))


# ---------------------------------------------------------------------------
# k-nearest neighbors
# ---------------------------------------------------------------------------


def test_knn_two_neighbors():
    out = knn_predict([[0.0], [1.0], [2.0]], [[0.0], [3.0], [9.0]], [[0.9]], k=2)
    assert out.b_hat[0, 0] == 1.5


def test_knn_k_equals_n_gives_global_mean():
    train_u, train_phi, eval_u = random_problem(8)
    out = knn_predict(train_u, train_phi, eval_u, k=len(train_u))
    np.testing.assert_allclose(
        out.b_hat, np.tile(train_phi.mean(axis=0), (len(eval_u), 1)), rtol=1e-12
    )


def test_knn_k1_at_training_point_returns_its_row():
    train_u, train_phi, _ = random_problem(9)
    out = knn_predict(train_u, train_phi, train_u[[4]], k=1)
    np.testing.assert_array_equal(out.b_hat[0], train_phi[4])


def test_knn_distance_ties_prefer_lower_index():
    out = knn_predict([[0.0], [2.0]], [[10.0], [20.0]], [[1.0]], k=1)
    assert out.b_hat[0, 0] == 10.0


def test_knn_matches_bruteforce():
    train_u, train_phi, eval_u = random_problem(10)
    k = 11
    out = knn_predict(train_u, train_phi, eval_u, k)
    for r in range(len(eval_u)):
        dist = ((train_u - eval_u[r]) ** 2).sum(axis=1)
        nearest = np.argsort(dist, kind="stable")[:k]
        np.testing.assert_allclose(out.b_hat[r], train_phi[nearest].mean(axis=0),
                                   rtol=1e-10)


def test_knn_grid_matches_single_calls():
    train_u, train_phi, eval_u = random_problem(11)
    ks = [1, 5, 17, len(train_u)]
    grid = knn_predict_grid(train_u, train_phi, eval_u, ks)
    for k, out in zip(ks, grid):
        single = knn_predict(train_u, train_phi, eval_u, k)
        np.testing.assert_allclose(out.b_hat, single.b_hat, rtol=1e-12)


def test_knn_no_eval_crosstalk():
    train_u, train_phi, eval_u = random_problem(12, n_eval=2 * ROW_BLOCK + 3)
    for n_eval, part in CROSSTALK_CASES:
        padded = knn_predict(train_u, train_phi, eval_u[:n_eval], 7)
        alone = knn_predict(train_u, train_phi, eval_u[part], 7)
        np.testing.assert_array_equal(alone.b_hat, padded.b_hat[part])


def test_knn_constant_first_target_stays_one():
    train_u, train_phi, eval_u = random_problem(13)
    train_phi[:, 0] = 1.0
    for out in knn_predict_grid(train_u, train_phi, eval_u, [1, 4, 9]):
        np.testing.assert_array_equal(out.b_hat[:, 0], np.ones(len(eval_u)))


def test_knn_rejects_bad_k():
    train_u, train_phi, eval_u = random_problem(14)
    with pytest.raises(ValueError):
        knn_predict(train_u, train_phi, eval_u, 0)
    with pytest.raises(ValueError):
        knn_predict(train_u, train_phi, eval_u, len(train_u) + 1)


def stable_prefix(sq_dists, k):
    """The full-sort neighbor ordering that nearest_order must reproduce."""
    return np.argsort(sq_dists, axis=1, kind="stable")[:, :k]


def lag_rows(series, n_lags=3):
    n = series.size - n_lags
    return np.column_stack([series[j : n + j] for j in range(n_lags)])


def distance_rows(kind, n_rows, n_cols, seed):
    """Query-to-training squared distances with a chosen amount of ties."""
    rng = np.random.default_rng(seed)
    if kind == "all_equal":
        return np.full((n_rows, n_cols), float(rng.integers(0, 3)))
    if kind == "integer_lags":
        u = lag_rows(rng.integers(0, 3, size=n_rows + n_cols + 3).astype(float))
    else:
        u = rng.normal(size=(n_rows + n_cols, 3))
        if kind == "rounded":
            u = np.round(u, 1)
    sq = pairwise_sq_dists(u[:n_rows], u[n_rows : n_rows + n_cols])
    if kind == "with_nan":
        sq[rng.random(sq.shape) < 0.05] = np.nan
    return sq


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(
        ["continuous", "rounded", "integer_lags", "all_equal", "with_nan"]
    ),
    n_rows=st.integers(1, 2 * ROW_BLOCK + 50),
    n_cols=st.integers(1, 60),
    k_rule=st.sampled_from(["one", "n_train-1", "n_train", "any"]),
    k_any=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="integer_lags", n_rows=ROW_BLOCK + 3, n_cols=40,
         k_rule="any", k_any=7, seed=0)
@example(kind="continuous", n_rows=ROW_BLOCK + 3, n_cols=40,
         k_rule="any", k_any=7, seed=0)
def test_nearest_order_equals_stable_argsort_prefix(kind, n_rows, n_cols, k_rule,
                                                    k_any, seed):
    sq = distance_rows(kind, n_rows, n_cols, seed)
    k = {"one": 1, "n_train-1": max(n_cols - 1, 1), "n_train": n_cols,
         "any": min(k_any, n_cols)}[k_rule]
    assert np.array_equal(nearest_order(sq, k), stable_prefix(sq, k))


def test_knn_grid_on_tied_design_matches_full_sort(monkeypatch):
    rng = np.random.default_rng(31)
    series = np.round(rng.normal(size=3000), 1)
    u = lag_rows(series)
    phi = rng.normal(size=(u.shape[0], 5))
    train_u, train_phi, eval_u = u[:2000], phi[:2000], u[2000:]
    ks = default_k_grid(train_u.shape[0])
    fast = knn_predict_grid(train_u, train_phi, eval_u, ks)
    fallback_rows = []

    def spied_prefix(sq_dists, k):
        fallback_rows.append(sq_dists.shape[0])
        return stable_prefix(sq_dists, k)

    monkeypatch.setattr(regression, "nearest_order", spied_prefix)
    reference = knn_predict_grid(train_u, train_phi, eval_u, ks)
    # the tree settles the untied rows; the tie rule is exercised on the rest
    assert sum(fallback_rows) > 0
    for out, ref in zip(fast, reference):
        assert np.array_equal(out.b_hat, ref.b_hat)


def blocked_order(train_u, eval_u, k):
    """knn_order's answer from the row-blocked pass alone, without the tree."""
    return np.vstack(
        [nearest_order(sq, k) for _, sq in distance_blocks(train_u, eval_u)]
    )


@contextlib.contextmanager
def spied_fallback_rows():
    """Count the query rows knn_order sends to the blocked nearest_order."""
    rows = []

    def spied_order(sq_dists, k):
        rows.append(sq_dists.shape[0])
        return nearest_order(sq_dists, k)

    with mock.patch.object(regression, "nearest_order", spied_order):
        yield rows


def tree_design(kind, n_rows, d, seed):
    """Covariate rows with a chosen amount of tied and near-tied distances."""
    rng = np.random.default_rng(seed)
    if kind == "integer_lags":
        return lag_rows(rng.integers(0, 3, size=n_rows + d).astype(float), d)
    u = rng.normal(size=(n_rows, d))
    if kind == "rounded":
        u = np.round(u, 1)
    elif kind == "duplicated":
        # every row is one of the first third's, so each has exact twins
        u = u[rng.integers(0, max(n_rows // 3, 1), size=n_rows)]
    return u


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["continuous", "rounded", "integer_lags", "duplicated"]),
    d=st.integers(1, TREE_MAX_DIM),
    n_train=st.integers(2, 150),
    n_eval=st.sampled_from([ROW_BLOCK - 1, ROW_BLOCK, 3 * ROW_BLOCK + 1]),
    k_rule=st.sampled_from(["one", "n_train-1", "n_train", "any"]),
    k_any=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="duplicated", d=TREE_MAX_DIM, n_train=2, n_eval=ROW_BLOCK,
         k_rule="one", k_any=1, seed=0)
def test_knn_order_tree_equals_blocked_pass(kind, d, n_train, n_eval, k_rule,
                                            k_any, seed):
    u = tree_design(kind, n_train + n_eval, d, seed)
    train_u, eval_u = u[:n_train], u[n_train:]
    if kind == "duplicated":
        eval_u[0] = train_u[0] = train_u[-1]  # a query on two equal rows
    k = {"one": 1, "n_train-1": n_train - 1, "n_train": n_train,
         "any": min(k_any, n_train)}[k_rule]
    with spied_fallback_rows() as fallback_rows:
        order = knn_order(train_u, eval_u, k)
    assert np.array_equal(order, blocked_order(train_u, eval_u, k))
    if n_eval < ROW_BLOCK or k == n_train:
        assert sum(fallback_rows) == n_eval  # no tree
    elif kind == "duplicated":
        assert 0 < sum(fallback_rows)
    elif kind == "continuous":
        assert sum(fallback_rows) < n_eval


@pytest.mark.parametrize("kind", ["rounded", "integer_lags", "duplicated"])
def test_tied_designs_reach_the_blocked_fallback(kind):
    u = tree_design(kind, 2000 + ROW_BLOCK, 3, 32)
    train_u, eval_u = u[:2000], u[2000:]
    with spied_fallback_rows() as fallback_rows:
        order = knn_order(train_u, eval_u, 40)
    assert np.array_equal(order, blocked_order(train_u, eval_u, 40))
    assert 0 < sum(fallback_rows) <= ROW_BLOCK


# query sets through the blocked pass alone and through the tree, in few
# and many columns
GRID_SIZES = st.sampled_from([(7, 3), (2 * ROW_BLOCK + 3, 3), (ROW_BLOCK, 7)])


@settings(max_examples=60, deadline=None)
@given(sizes=GRID_SIZES, n_train=st.integers(2, 120),
       ks=st.lists(st.integers(1, 120), min_size=1, max_size=4, unique=True),
       rounded=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_knn_grid_equals_single_predicts(sizes, n_train, ks, rounded, seed):
    n_eval, d = sizes
    train_u, train_phi, eval_u = random_problem(seed, n=n_train, d=d,
                                                n_eval=n_eval)
    if rounded:
        train_u, eval_u = np.round(train_u, 1), np.round(eval_u, 1)
    ks = sorted({min(k, n_train) for k in ks})
    grid = knn_predict_grid(train_u, train_phi, eval_u, ks)
    for k, out in zip(ks, grid):
        single = knn_predict(train_u, train_phi, eval_u, k)
        assert np.array_equal(out.b_hat, single.b_hat)


@settings(max_examples=60, deadline=None)
@given(sizes=GRID_SIZES, n_train=st.integers(1, 120),
       deltas=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_nw_grid_equals_single_predicts(sizes, n_train, deltas, seed):
    n_eval, d = sizes
    train_u, train_phi, eval_u = random_problem(seed, n=n_train, d=d,
                                                n_eval=n_eval)
    assert_nw_grid_matches_single_calls(train_u, train_phi, eval_u, deltas)


@pytest.mark.parametrize("n_eval", [3, ROW_BLOCK + 3])
def test_bad_queries_are_rejected(n_eval):
    train_u, train_phi, eval_u = random_problem(33, n_eval=n_eval)
    nan_row, inf_row = eval_u.copy(), eval_u.copy()
    nan_row[1, 0] = np.nan
    inf_row[-1, 2] = -np.inf
    calls = [
        lambda q: knn_order(train_u, q, 3),
        lambda q: knn_predict(train_u, train_phi, q, 3),
        lambda q: knn_predict_grid(train_u, train_phi, q, [1, 3]),
        lambda q: nw_predict(train_u, train_phi, q, 0.9),
        lambda q: nw_predict_grid(train_u, train_phi, q, [0.5, 0.9]),
    ]
    for bad, match in [(nan_row, "non-finite"), (inf_row, "non-finite"),
                       (eval_u[:, :2], "3 columns"), (eval_u[0], "3 columns")]:
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call(bad)


# ---------------------------------------------------------------------------
# row threads: each distance block's per-row work split across threads
# ---------------------------------------------------------------------------


def checked_split(ran):
    """split_rows that adds the threads running its work to ``ran`` and
    checks that each call ran it on the caller's thread and at most
    ROW_THREADS - 1 others."""
    def spied_split(n_rows, step, work):
        mine = set()

        def spied_work(lo, hi):
            mine.add(threading.get_ident())
            return work(lo, hi)

        split_rows(n_rows, step, spied_work)
        assert len(mine) <= regression.ROW_THREADS
        assert not mine or threading.get_ident() in mine
        ran.update(mine)
    return spied_split


@contextlib.contextmanager
def on_row_threads(threads, ran):
    """ROW_THREADS at ``threads``, and split_rows checked by checked_split(ran)."""
    split = checked_split(ran)
    with mock.patch.object(regression, "ROW_THREADS", threads), \
            mock.patch.object(regression, "split_rows", split), \
            mock.patch.object(baselines, "split_rows", split):
        yield


def on_one_and_two_threads(call):
    """call()'s results with ROW_THREADS at 1 and at 2, and the threads that
    ran nearest_order in each."""
    results, runners = [], []
    for threads in (1, 2):
        ran = set()

        def spied_order(sq_dists, k, ran=ran):
            ran.add(threading.get_ident())
            return nearest_order(sq_dists, k)

        with on_row_threads(threads, set()), \
                mock.patch.object(regression, "nearest_order", spied_order):
            results.append(call())
        runners.append(ran)
    return results, runners


def sliced_on_one_and_two_threads(call):
    """call()'s results with ROW_THREADS at 1 and at 2, and the threads that
    ran split_rows' work in each."""
    results, runners = [], []
    for threads in (1, 2):
        ran = set()
        with on_row_threads(threads, ran):
            results.append(call())
        runners.append(ran)
    return results, runners


def split_over_threads(ran):
    """The caller's thread and at least one other ran the work."""
    return threading.get_ident() in ran and len(ran) >= 2


@contextlib.contextmanager
def spied_thread_starts():
    """A list of every thread started inside the block."""
    started = []
    real_start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        real_start(thread)

    with mock.patch.object(threading.Thread, "start", counted_start):
        yield started


@pytest.mark.parametrize("n_eval", [ROW_BLOCK + 1, 300, 1999])
def test_nw_grid_has_the_same_bits_on_any_thread_count(n_eval):
    # ROW_BLOCK + 1 query rows end in a one-row block, which is not split
    train_u, train_phi, eval_u = random_problem(41, n=3000, n_targets=6,
                                                n_eval=n_eval)
    deltas = default_delta_grid(train_u)
    (serial, split), _ = on_one_and_two_threads(
        lambda: nw_predict_grid(train_u, train_phi, eval_u, deltas))
    for one, two in zip(serial, split):
        assert one.n_fallback == two.n_fallback
        assert np.array_equal(one.b_hat, two.b_hat)


@pytest.mark.parametrize("d", [3, 20])
def test_pairwise_sq_dists_has_the_same_bits_on_any_thread_count(d):
    # up to SLICE_ROWS rows finish on the caller's thread, starting no
    # thread; more are split
    rng = np.random.default_rng(49)
    b = rng.normal(size=(700, d))
    for n_rows in [1, 31, 33, ROW_BLOCK, ROW_BLOCK + 1]:
        a = rng.normal(size=(n_rows, d))
        with spied_thread_starts() as started:
            (serial, split), (one, two) = sliced_on_one_and_two_threads(
                partial(pairwise_sq_dists, a, b))
        assert serial.tobytes() == split.tobytes(), n_rows
        assert one <= {threading.get_ident()}, n_rows
        assert split_over_threads(two) == (n_rows > SLICE_ROWS), n_rows
        assert (started == []) == (n_rows <= SLICE_ROWS), n_rows


@pytest.mark.parametrize("design", ["tree", "blocked", "tied"])
def test_knn_grid_has_the_same_bits_on_any_thread_count(design):
    d = 20 if design == "blocked" else 3
    train_u, train_phi, eval_u = random_problem(42, n=3000, d=d, n_targets=5,
                                                n_eval=600)
    if design == "tied":
        # lag rows of a series rounded to 0.1: the tree settles few rows
        u = lag_rows(np.round(np.random.default_rng(43).normal(size=3603), 1))
        train_u, eval_u = u[:3000], u[3000:]
    ks = default_k_grid(train_u.shape[0])
    (serial, split), (_, runners) = on_one_and_two_threads(
        lambda: knn_predict_grid(train_u, train_phi, eval_u, ks))
    for one, two in zip(serial, split):
        assert np.array_equal(one.b_hat, two.b_hat)
    if design != "tree":
        assert split_over_threads(runners)  # the blocked rows were split


def test_nnkcde_fit_has_the_same_bits_on_any_thread_count():
    rng = np.random.default_rng(44)
    u = rng.normal(size=(2400, 6))
    y = u[:, 0] + rng.normal(size=2400)

    def fit_and_tabulate():
        model = nnkcde_fit(u[:2000], y[:2000], u[2000:], y[2000:],
                           lo=y.min(), hi=y.max(), grid_size=201)
        return model, density_rows(model, model.row_state(u[2000:]), model.grid())

    ((serial, serial_rows), (split, split_rows)), (_, runners) = (
        on_one_and_two_threads(fit_and_tabulate))
    assert (serial.k, serial.h) == (split.k, split.h)
    assert np.array_equal(serial_rows.density, split_rows.density)
    assert split_over_threads(runners)


def dense_neighbor_means(train_phi, order, ks):
    """neighbor_means as one gathered (rows, width) block per rank."""
    total = train_phi[order[:, 0]]
    means = {}
    for k in range(1, max(ks) + 1):
        if k > 1:
            total += train_phi[order[:, k - 1]]
        if k in ks:
            means[k] = total / k
    return [means[k] for k in ks]


def dense_kernel_means(train_y, order, ks, grid_y, h):
    """kernel_means with one np.exp over every used response's row."""
    used, where = np.unique(order, return_inverse=True)
    diff = (grid_y[None, :] - train_y[used, None]) / h
    kern = np.exp(-0.5 * diff * diff)
    means = dense_neighbor_means(kern, where.reshape(order.shape), ks)
    return [m / (h * SQRT_2PI) for m in means]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("width, n_rows", [(31, 2500), (1001, 333)])
def test_neighbor_means_has_the_same_bits_on_any_thread_count(width, n_rows):
    # 2500 rows of width 31: 1057-row slices, runs of 2114 rows and of a
    # 386-row tail; 333 rows of width 1001: 32-row slices, runs of 192 and
    # 141 rows, the second ending in a 13-row tail
    rng = np.random.default_rng(46)
    train_phi = rng.normal(size=(900, width))
    order = rng.integers(0, 900, size=(n_rows, 12))
    ks = [12, 1, 5, 5]  # unsorted, and a repeated k gets an array of its own
    (serial, split), (one, two) = sliced_on_one_and_two_threads(
        lambda: regression.neighbor_means(train_phi, order, ks))
    assert_same_bits(serial, dense_neighbor_means(train_phi, order, ks))
    assert_same_bits(split, serial)
    assert serial[2] is not serial[3]
    assert one == {threading.get_ident()} and split_over_threads(two)


def test_kernel_means_has_the_same_bits_on_any_thread_count():
    # 333 used responses on a 2001-point grid: 16-row slices, runs of 176
    # and 157 rows, the second ending in a 13-row tail
    rng = np.random.default_rng(47)
    train_y = rng.normal(size=333)
    order = rng.integers(0, 333, size=(333, 7))
    order[:, 0] = np.arange(333)  # every response is used
    grid_y = np.linspace(-4.0, 4.0, 2001)
    ks = [1, 3, 7]
    (serial, split), (one, two) = sliced_on_one_and_two_threads(
        lambda: kernel_means(train_y, order, ks, grid_y, 0.3))
    assert_same_bits(serial, dense_kernel_means(train_y, order, ks, grid_y, 0.3))
    assert_same_bits(split, serial)
    assert one == {threading.get_ident()} and split_over_threads(two)


@contextlib.contextmanager
def block_widths():
    """A list of the grid columns of each kernel block kernel_means averages."""
    widths = []

    def spied_means(train_phi, *args, **kwargs):
        widths.append(train_phi.shape[1])
        return regression.neighbor_means(train_phi, *args, **kwargs)

    with mock.patch.object(baselines, "neighbor_means", spied_means):
        yield widths


GRID_SIZES = {"one point": lambda width: 1, "width - 1": lambda width: width - 1,
              "width": lambda width: width, "width + 1": lambda width: width + 1,
              "paper grid": lambda width: 2001}


@settings(max_examples=100, deadline=None)
@given(width=st.integers(2, 40), grid=st.sampled_from(sorted(GRID_SIZES)),
       n_rows=st.sampled_from([1, 2, 57]),
       ks=st.lists(st.integers(1, 9), min_size=1, max_size=4),
       slice_elems=st.sampled_from([1, 7, 64, regression.SLICE_ELEMS]),
       threads=st.sampled_from([1, 2]), h=st.floats(0.01, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_means_in_blocks_keeps_the_bits_of_one_matrix(
        width, grid, n_rows, ks, slice_elems, threads, h, seed):
    # blocks of `width` grid columns, row slices down to one value, one or
    # two row threads; one query row uses at most max(ks) responses
    rng = np.random.default_rng(seed)
    train_y = rng.normal(size=60)
    order = rng.integers(0, 60, size=(n_rows, max(ks)))
    used = np.unique(order).size
    grid_y = np.linspace(-4.0, 4.0, GRID_SIZES[grid](width))
    # the rule floors KERNEL_BLOCK_ELEMS / used: `width` columns a block
    with on_row_threads(threads, set()), \
            mock.patch.object(baselines, "KERNEL_BLOCK_ELEMS", width * used + used - 1), \
            mock.patch.object(baselines, "SLICE_ELEMS", slice_elems), \
            mock.patch.object(regression, "SLICE_ELEMS", slice_elems), \
            block_widths() as widths:
        got = kernel_means(train_y, order, ks, grid_y, h)
    assert_same_bits(got, dense_kernel_means(train_y, order, ks, grid_y, h))
    full, rest = divmod(grid_y.size, width)
    assert widths == [width] * full + [rest] * (rest > 0)


def test_one_forecast_row_tabulates_its_kernel_rows_in_one_block():
    # used = k responses; the default k grid of a 100k-row fit reaches 316
    rng = np.random.default_rng(50)
    train_y = rng.normal(size=400)
    with block_widths() as widths:
        kernel_means(train_y, rng.permutation(400)[None, :316], [316],
                     np.linspace(-4.0, 4.0, 2001), 0.3)
    assert widths == [2001]


def test_distances_are_computed_on_the_callers_thread():
    # perfbench's tracer keeps one span stack, for the caller's thread; each
    # call's finishing pass runs on the row threads once it has two slices
    # (calling thread, query rows, ROW_THREADS, finishing threads, threads started)
    calls = []

    def spied_dists(a, b, b_norms=None):
        finishers = set()
        with mock.patch.object(regression, "split_rows", checked_split(finishers)), \
                spied_thread_starts() as started:
            sq = pairwise_sq_dists(a, b, b_norms)
        calls.append((threading.get_ident(), len(a), regression.ROW_THREADS,
                      finishers, started))
        return sq

    y = generate("arma_jump", 4000, seed=5)  # 399 validation rows: 2 blocks
    nw_design = lag_embed(SeriesTable(y), 3)
    knn_design = lag_embed(SeriesTable(y), TREE_MAX_DIM + 3)  # blocked pass
    with mock.patch.object(regression, "pairwise_sq_dists", spied_dists):
        (nw_model, _), _ = on_one_and_two_threads(lambda: fit(nw_design))
        _, (_, runners) = on_one_and_two_threads(
            lambda: fit(knn_design, config=FitConfig(backend="knn")))
        # a single-row query, as a forecast makes
        on_one_and_two_threads(
            lambda: nw_model.backend.predict(nw_model.backend.train_u[:1]))
    assert split_over_threads(runners)  # the knn blocks were split
    assert len(calls) > 4 and {call[1] for call in calls} >= {1, 399 - 256}
    for caller, n_rows, threads, finishers, started in calls:
        assert caller == threading.get_ident()
        if n_rows <= SLICE_ROWS:
            # finished inline, starting no thread
            assert finishers == {caller} and started == []
        elif threads == 1:
            assert finishers == {caller}
        else:
            assert split_over_threads(finishers)


@pytest.mark.parametrize("case", ["nw", "nw_grid", "knn_blocked", "knn_skip"])
def test_a_distance_pass_holds_one_block_at_a_time(case):
    # four blocks: the peak is one block, on the skip path the kept rows'
    # copy beside it, each row thread's slice scratch and the outputs,
    # never the previous block beside the next
    n_train, k = 6000, 10
    d = TREE_MAX_DIM + 3 if case == "knn_blocked" else 3
    train_u, train_phi, eval_u = random_problem(50, n=n_train, d=d, n_targets=6,
                                                n_eval=4 * ROW_BLOCK)
    kept = 0
    if case == "knn_skip":
        # rows rounded to 0.01: the tree leaves about 30 rows of each block
        # unsettled, so a block held beside its kept rows would show
        train_u, eval_u = np.round(train_u, 2), np.round(eval_u, 2)
        _, settled = regression._tree_order(train_u, eval_u, k, sq_norms(train_u))
        per_block = (~settled).reshape(-1, ROW_BLOCK).sum(axis=1)
        assert ((per_block > 0) & (per_block < ROW_BLOCK)).any()
        kept = per_block.max() * n_train * 8
    call = {
        "nw": partial(nw_predict, train_u, train_phi, eval_u, 0.3),
        "nw_grid": partial(nw_predict_grid, train_u, train_phi, eval_u, [0.1, 0.3]),
        "knn_blocked": partial(knn_order, train_u, eval_u, k),
        "knn_skip": partial(knn_order, train_u, eval_u, k),
    }[case]
    with mock.patch.object(regression, "ROW_THREADS", 2):
        call()  # scipy's deferred imports load outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    block = ROW_BLOCK * n_train * 8
    # two slice temporaries of SLICE_ROWS * n_train values per row thread:
    # the norm sum, or nearest_order's partition indices and mask
    slices = regression.ROW_THREADS * 2 * SLICE_ROWS * n_train * 8
    # the outputs: nw's sums per radius, knn's order and the tree's
    # (k + 1)-neighbor query; 1 MB more for counts and index arrays
    outputs = max(2 * eval_u.shape[0] * train_phi.shape[1] * 8,
                  3 * eval_u.shape[0] * (k + 1) * 8) + 2**20
    assert peak < block + kept + slices + outputs


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_blocks_on_threads_of_its_own():
    # the parent's threads are not copied into the child, which starts its own
    train_u, train_phi, eval_u = random_problem(45, n=500, n_eval=300)
    with mock.patch.object(regression, "ROW_THREADS", 2):
        before = nw_predict_grid(train_u, train_phi, eval_u, [0.5, 1.0])
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                after = nw_predict_grid(train_u, train_phi, eval_u, [0.5, 1.0])
                code = int(not all(np.array_equal(a.b_hat, b.b_hat)
                                   for a, b in zip(before, after)))
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split block never finished")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(done[1]) == 0


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(0, 2000), step=st.integers(1, 600),
       threads=st.integers(1, 4))
@example(n_rows=0, step=1, threads=2)
@example(n_rows=0, step=32, threads=2)  # no slice: no call, no thread
@example(n_rows=1, step=32, threads=2)  # one slice: the caller's thread alone
def test_split_rows_hands_contiguous_runs_of_slices_to_its_threads(n_rows, step,
                                                                    threads):
    calls = []  # (thread, lo, hi) per work call
    with mock.patch.object(regression, "ROW_THREADS", threads), \
            spied_thread_starts() as started:
        split_rows(n_rows, step, lambda lo, hi: calls.append(
            (threading.current_thread(), lo, hi)))
    slices = [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
    assert sorted(call[1:] for call in calls) == slices  # each row in one call
    runs = {}  # by thread object: a finished thread's ident may recur
    for thread, lo, hi in calls:
        runs.setdefault(thread, []).append((lo, hi))
    for run in runs.values():
        assert all(a[1] == b[0] for a, b in zip(run, run[1:]))
    if slices:
        caller_run = runs[threading.current_thread()]
        assert caller_run == slices[: len(caller_run)]
        assert set(runs) == {threading.current_thread(), *started}
    assert len(started) <= threads - 1
    if len(slices) <= 1:
        assert started == []


def test_split_rows_raises_what_a_thread_raised():
    def work(lo, hi):
        if lo > 0:
            raise ZeroDivisionError(lo)

    with mock.patch.object(regression, "ROW_THREADS", 2):
        with pytest.raises(ZeroDivisionError, match="^5$"):
            split_rows(10, 5, work)


def boolean_mask_nw_predict(train_u, train_phi, eval_u, delta):
    """nw_predict with a boolean mask and its float copy of every block,
    the mask's product with train_phi one call per block."""
    sums = np.empty((eval_u.shape[0], train_phi.shape[1]))
    counts = np.empty(eval_u.shape[0], dtype=np.intp)
    for rows, sq in distance_blocks(train_u, eval_u):
        mask = sq <= delta * delta
        counts[rows] = mask.sum(axis=1)
        sums[rows] = mask.astype(float) @ train_phi
    inside = counts > 0
    sums[inside] /= counts[inside, None]
    sums[~inside] = train_phi.mean(axis=0)
    return sums, int((~inside).sum())


NW_SHARED = random_problem(49, n=2000, n_targets=6, n_eval=3 * ROW_BLOCK + 33)
# a training point at exactly each radius from the first query row: inside
NW_SHARED[2][0] = 0.0
NW_SHARED[0][:3] = np.diag([0.02, 0.3, 1.0])


@settings(max_examples=12, deadline=None)
@example(blocks=0, slices=0, delta=0.3)  # one row: a forecast's gemv
@example(blocks=1, slices=0, delta=0.3)  # ROW_BLOCK + 1: a one-row tail block
@example(blocks=2, slices=7, delta=0.02)  # most rows fall back
@given(blocks=st.integers(0, 3), slices=st.integers(0, ROW_BLOCK // SLICE_ROWS - 1),
       delta=st.sampled_from([0.02, 0.3, 1.0]))
def test_nw_predict_keeps_its_bits_on_any_thread_count(blocks, slices, delta):
    # n_eval % SLICE_ROWS == 1, and n_eval % ROW_BLOCK == 1 when slices == 0:
    # every block ends in a one-row slice, the last block in a one-row gemv
    n_eval = blocks * ROW_BLOCK + slices * SLICE_ROWS + 1
    train_u, train_phi, eval_u = NW_SHARED
    eval_u = eval_u[:n_eval]
    want, n_fallback = boolean_mask_nw_predict(train_u, train_phi, eval_u, delta)
    got, runners = sliced_on_one_and_two_threads(
        lambda: nw_predict(train_u, train_phi, eval_u, delta))
    for pred in got:
        assert pred.b_hat.tobytes() == want.tobytes()
        assert pred.n_fallback == n_fallback
    if n_eval > ROW_BLOCK:  # a whole block of eight slices went to two threads
        assert split_over_threads(runners[1])


def test_default_k_grid_examples():
    assert default_k_grid(2500) == [5, 10, 20, 40, 50, 80]
    assert default_k_grid(30) == [5, 10, 20, 30]


# ---------------------------------------------------------------------------
# LASSO
# ---------------------------------------------------------------------------


def test_soft_threshold():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0


def test_lasso_huge_penalty_returns_target_means():
    train_u, train_phi, eval_u = random_problem(15)
    model = lasso_fit(train_u, train_phi, lam=1e6)
    assert np.all(model.coef == 0.0)
    out = model.predict(eval_u)
    np.testing.assert_allclose(
        out.b_hat, np.tile(train_phi.mean(axis=0), (len(eval_u), 1)), rtol=1e-12
    )


def test_lasso_zero_penalty_matches_normal_equations():
    rng = np.random.default_rng(16)
    raw = rng.normal(size=(200, 4))
    train_u, _ = np.linalg.qr(raw)  # orthonormal columns, well conditioned
    train_phi = rng.normal(size=(200, 3))
    model = lasso_fit(train_u, train_phi, lam=0.0)
    design = np.column_stack([np.ones(len(train_u)), train_u])
    ols, *_ = np.linalg.lstsq(design, train_phi, rcond=None)
    np.testing.assert_allclose(model.intercept, ols[0], atol=1e-6)
    np.testing.assert_allclose(model.coef, ols[1:], atol=1e-6)


def test_lasso_univariate_closed_form():
    # unit-variance covariate: standardized slope is the soft-thresholded
    # covariance between covariate and centered target
    rng = np.random.default_rng(17)
    u = np.repeat([-1.0, 1.0], 50)[:, None]
    phi = rng.normal(size=(100, 2))
    lam = 0.05
    model = lasso_fit(u, phi, lam)
    yc = phi - phi.mean(axis=0)
    cov = (u[:, 0] @ yc) / len(u)
    np.testing.assert_allclose(model.coef_std[0], soft_threshold(cov, lam),
                               atol=1e-12)


def test_lasso_sparsity_monotone_along_default_path():
    rng = np.random.default_rng(18)
    train_u = rng.normal(size=(150, 6))
    z = rng.random(150)
    train_phi = np.column_stack([np.ones(150), np.cos(np.pi * z), z])
    lams = default_lambda_grid(train_u, train_phi)
    nnz = [int((m.coef != 0).sum()) for m in lasso_path(train_u, train_phi, lams)]
    assert all(a <= b for a, b in zip(nnz, nnz[1:]))


def test_lasso_lambda_max_zeroes_all_slopes():
    train_u, train_phi, _ = random_problem(19)
    lams = default_lambda_grid(train_u, train_phi)
    assert len(lams) == 10
    assert lams[-1] / lams[0] == pytest.approx(1e-4, rel=1e-10)
    model = lasso_fit(train_u, train_phi, lams[0])
    assert np.all(model.coef == 0.0)
    # just below lambda_max at least one slope activates
    model2 = lasso_fit(train_u, train_phi, lams[0] * 0.99)
    assert np.any(model2.coef != 0.0)


def test_lasso_path_matches_cold_fits():
    train_u, train_phi, _ = random_problem(20)
    lams = default_lambda_grid(train_u, train_phi, n_candidates=6)
    warm = lasso_path(train_u, train_phi, lams)
    for lam, model in zip(lams, warm):
        cold = lasso_fit(train_u, train_phi, lam)
        np.testing.assert_allclose(model.coef, cold.coef, atol=1e-6)
    with pytest.raises(ValueError):
        lasso_path(train_u, train_phi, lams[::-1])


def per_penalty_path(train_u, train_phi, lams, max_iter):
    """The path as one fit per penalty: each standardizes, centres and forms
    its Gram and cross-moments anew, warm-started from the last coef_std."""
    n = len(train_u)
    warm, fits = None, []
    for lam in lams:
        mu = train_u.mean(axis=0)
        scale = train_u.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        x = (train_u - mu) / scale
        ybar = train_phi.mean(axis=0)
        yc = train_phi - ybar
        gram = (x.T @ x) / n
        cov = (x.T @ yc) / n
        beta0 = np.zeros_like(cov) if warm is None else warm
        beta, converged, n_iter = regression._cd_solve(gram, cov, lam, beta0,
                                                       max_iter, 1e-7)
        coef = beta / scale[:, None]
        fits.append({"intercept": ybar - mu @ coef, "coef": coef, "coef_std": beta,
                     "feature_mean": mu, "feature_scale": scale,
                     "converged": converged, "n_iter": n_iter})
        warm = beta
    return fits, float(np.abs(x.T @ yc).max() / n)


@pytest.mark.filterwarnings("ignore:lasso did not converge")
@settings(max_examples=40, deadline=None)
@example(seed=0, n=40, d=3, n_targets=2, constant=1, fractions=[1.0, 0.1, 0.0])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), d=st.integers(1, 4),
       n_targets=st.integers(1, 3), constant=st.integers(-1, 3),
       fractions=st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.01, 0.0])
                          | st.floats(0.0, 2.0), min_size=1, max_size=5))
def test_lasso_path_is_the_per_penalty_fits_bit_for_bit(seed, n, d, n_targets,
                                                        constant, fractions):
    rng = np.random.default_rng(seed)
    train_u = rng.normal(size=(n, d))
    if 0 <= constant < d:
        train_u[:, constant] = 3.0  # a constant column, or (-1) none
    train_phi = rng.normal(size=(n, n_targets))
    _, lam_max = per_penalty_path(train_u, train_phi, [0.0], 1)
    lams = sorted((f * (lam_max or 1.0) for f in fractions), reverse=True)
    expected, _ = per_penalty_path(train_u, train_phi, lams, 200)
    path = lasso_path(train_u, train_phi, lams, max_iter=200)
    assert [m.lam for m in path] == lams
    for model, want in zip(path, expected, strict=True):
        for name, value in want.items():
            assert getattr(model, name).tobytes() == value.tobytes(), name
    if lam_max > 0:
        grid = default_lambda_grid(train_u, train_phi)
        assert (grid[0], grid[-1]) == (lam_max, lam_max * 1e-4)
    else:
        with pytest.raises(DataError):
            default_lambda_grid(train_u, train_phi)


def same_lasso_models(got, want):
    """Every LassoModel field equal, arrays bit for bit; lam a float in both."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a.lam) is type(b.lam) is float
        for f in dataclasses.fields(LassoModel):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape,
                                                           y.tobytes()), f.name
            else:
                assert x == y, f.name


@pytest.mark.filterwarnings("ignore:lasso did not converge")
@settings(max_examples=40, deadline=None)
@example(seed=0, n=40, d=3, n_targets=2, constant=1, constant_targets=False)
@example(seed=0, n=40, d=3, n_targets=2, constant=1, constant_targets=True)
@example(seed=0, n=1, d=2, n_targets=1, constant=-1, constant_targets=False)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50), d=st.integers(1, 4),
       n_targets=st.integers(1, 3), constant=st.integers(-1, 3),
       constant_targets=st.booleans())
def test_a_default_lasso_path_is_the_path_over_default_lambda_grid(
        seed, n, d, n_targets, constant, constant_targets):
    rng = np.random.default_rng(seed)
    train_u = rng.normal(size=(n, d))
    if 0 <= constant < d:
        train_u[:, constant] = 3.0  # a constant column, or (-1) none
    train_phi = rng.normal(size=(n, n_targets))
    if constant_targets:  # integers, so each column's mean is exact
        train_phi[:] = rng.integers(-3, 4, size=n_targets)
    try:
        lams = default_lambda_grid(train_u, train_phi)
    except DataError as err:
        with pytest.raises(DataError) as path_err:
            lasso_path(train_u, train_phi, max_iter=200)
        assert str(path_err.value) == str(err)
        return
    assert not constant_targets
    same_lasso_models(lasso_path(train_u, train_phi, max_iter=200),
                      lasso_path(train_u, train_phi, lams, max_iter=200))


@pytest.mark.parametrize("kind", list(BACKENDS))
def test_a_sweep_without_a_grid_tries_the_default_grid(kind):
    train_u, train_phi, eval_u = random_problem(40, n=300)
    default = {"nw": lambda: default_delta_grid(train_u),
               "knn": lambda: default_k_grid(len(train_u)),
               "lasso": lambda: default_lambda_grid(train_u, train_phi)}[kind]()
    hypers, preds, models = BACKENDS[kind].sweep(train_u, train_phi, eval_u)
    assert np.asarray(hypers).tobytes() == np.asarray(default).tobytes()
    assert [p.b_hat.shape for p in preds] == [(len(eval_u), 4)] * len(hypers)
    if kind == "lasso":
        same_lasso_models(models, lasso_path(train_u, train_phi, default))
    else:
        assert models is None


def test_a_sweep_cleans_a_given_grid():
    train_u, train_phi, eval_u = random_problem(41, n=50)
    sweep = {kind: partial(cls.sweep, train_u, train_phi, eval_u)
             for kind, cls in BACKENDS.items()}
    # nw: floats in the given order, repeats kept
    hypers, _, _ = sweep["nw"]([0.5, 2, 0.5, np.float32(1.25)])
    assert hypers == [0.5, 2.0, 0.5, 1.25]
    assert all(type(h) is float for h in hypers)
    # knn: a k above the training size is skipped with a warning
    with pytest.warns(RuntimeWarning, match="skipping k=51"):
        hypers, preds, _ = sweep["knn"]([7, 51, 3.0])
    assert hypers == [7, 3] and len(preds) == 2
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="no usable k"):
        sweep["knn"]([51])
    # lasso: sorted descending, each nonnegative and finite
    hypers, _, models = sweep["lasso"]([0.01, 0.1, 0.0, 0.05])
    assert hypers == [0.1, 0.05, 0.01, 0.0] == [m.lam for m in models]
    for bad in (-0.1, np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            sweep["lasso"]([0.1, bad])


def test_lasso_constant_column_gets_zero_coefficient():
    train_u, train_phi, eval_u = random_problem(21)
    train_u[:, 1] = 42.0
    model = lasso_fit(train_u, train_phi, lam=0.01)
    assert np.all(model.coef[1] == 0.0)
    assert np.all(np.isfinite(model.predict(eval_u).b_hat))


def test_lasso_constant_first_target_is_exact():
    train_u, train_phi, eval_u = random_problem(22)
    train_phi[:, 0] = 1.0
    model = lasso_fit(train_u, train_phi, lam=0.01)
    np.testing.assert_allclose(model.predict(eval_u).b_hat[:, 0], 1.0, atol=1e-10)


def test_lasso_nonconvergence_warns():
    rng = np.random.default_rng(23)
    base = rng.normal(size=(80, 1))
    train_u = np.hstack([base, base + 1e-6 * rng.normal(size=(80, 1))])
    train_phi = rng.normal(size=(80, 2))
    with pytest.warns(RuntimeWarning):
        model = lasso_fit(train_u, train_phi, lam=1e-10, max_iter=1)
    assert not model.converged.all()


def test_lasso_objective_not_worse_than_perturbations():
    # the reported optimum cannot be improved by nudging any coordinate
    train_u, train_phi, _ = random_problem(24, n_targets=1)
    lam = 0.03
    model = lasso_fit(train_u, train_phi, lam)
    x = (train_u - model.feature_mean) / model.feature_scale
    yc = train_phi - train_phi.mean(axis=0)
    n = len(train_u)

    def objective(beta):
        resid = yc[:, 0] - x @ beta
        return 0.5 * resid @ resid / n + lam * np.abs(beta).sum()

    best = objective(model.coef_std[:, 0])
    rng = np.random.default_rng(25)
    for _ in range(200):
        trial = model.coef_std[:, 0] + rng.normal(scale=1e-3, size=x.shape[1])
        assert objective(trial) >= best - 1e-12


def test_degenerate_targets_reject_lambda_grid():
    train_u, train_phi, _ = random_problem(26)
    with pytest.raises(DataError, match="all targets are constant"):
        default_lambda_grid(train_u, np.ones_like(train_phi))


def test_degenerate_covariates_are_named_by_lasso_and_nw():
    rng = np.random.default_rng(27)
    train_phi = rng.normal(size=(50, 4))
    # every covariate column constant, or one row: the standardized X is zero
    for train_u in (np.full((50, 2), 3.0), rng.normal(size=(1, 2))):
        rows = train_phi[: train_u.shape[0]]
        for grid in (default_lambda_grid, lasso_path):
            with pytest.raises(DataError, match="covariates are degenerate"):
                grid(train_u, rows)
    with pytest.raises(DataError, match="covariates are degenerate"):
        default_delta_grid(np.full((50, 2), 3.0))
