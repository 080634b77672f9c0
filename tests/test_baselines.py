"""Baseline estimators: neighbor-KDE densities and AR-GARCH."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal, stats

from flexts import baselines, estimator, regression
from flexts.errors import DataError
from flexts.baselines import (
    PERSISTENCE_CAP,
    SQRT_2PI,
    GarchModel,
    _lag_matrix,
    NnkcdeModel,
    garch_density_rows,
    garch_filter,
    garch_fit,
    garch_forecast,
    garch_negloglik,
    garch_raw_rows,
    garch_starting_points,
    default_bandwidth_grid,
    kernel_means,
    nnkcde_fit,
)
from flexts.basis import fit_scaler
from flexts.estimator import quantiles_from_grid_density, renormalize_rows
from flexts.features import SeriesTable, SplitSpec, lag_embed, temporal_split
from flexts.regression import ROW_BLOCK, k_candidates, knn_order, pairwise_sq_dists
from flexts.scenarios import generate


def split_series(y, n_lags=3):
    lags = np.column_stack([y[n_lags - 1 - j : -1 - j] for j in range(n_lags)])
    resp = y[n_lags:]
    n = resp.size
    cut = int(0.8 * n)
    return lags[:cut], resp[:cut], lags[cut:], resp[cut:]


# ---------------------------------------------------------------------------
# NNKCDE
# ---------------------------------------------------------------------------


def test_single_training_point_kde_matches_closed_form():
    model = nnkcde_fit(
        train_u=np.zeros((1, 1)),
        train_y=np.array([0.0]),
        val_u=np.zeros((1, 1)),
        val_y=np.array([0.0]),
        lo=-3.0,
        hi=3.0,
        k_grid=[1],
        h_grid=[1.0],
    )
    dens = estimator.predict_density(model, np.zeros(1)).density
    grid = model.grid()
    expected = stats.norm.pdf(grid)
    expected /= np.trapezoid(expected, grid)
    np.testing.assert_allclose(dens, expected, atol=1e-10)


def test_two_point_kde_is_bimodal():
    model = nnkcde_fit(
        train_u=np.array([[0.0], [1.0]]),
        train_y=np.array([-1.0, 1.0]),
        val_u=np.array([[0.5]]),
        val_y=np.array([0.0]),
        lo=-2.0,
        hi=2.0,
        k_grid=[2],
        h_grid=[0.05],
    )
    grid = model.grid()
    dens = estimator.predict_density(model, np.array([0.5])).density
    at = lambda y: dens[np.argmin(np.abs(grid - y))]
    assert at(-1.0) > 20 * at(0.0)
    assert at(1.0) > 20 * at(0.0)
    # the two modes sit on the training responses
    peaks = grid[np.flatnonzero(dens > 0.5 * dens.max())]
    assert np.abs(peaks + 1).min() < 0.05 or np.abs(peaks - 1).min() < 0.05


def test_nnkcde_densities_have_unit_mass():
    rng = np.random.default_rng(0)
    y = generate("ar", 800, 1)
    u_tr, y_tr, u_va, y_va = split_series(y)
    model = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=y_tr.min(), hi=y_tr.max())
    dens = model.predict_density_batch(rng.normal(size=(25, 3)))
    assert np.all(dens >= 0.0)
    mass = np.trapezoid(dens, model.grid(), axis=1)
    np.testing.assert_allclose(mass, 1.0, atol=1e-8)


def test_nnkcde_tunes_over_both_grids():
    y = generate("nonlinear_variance", 900, 2)
    u_tr, y_tr, u_va, y_va = split_series(y)
    model = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3.5, hi=3.5)
    assert 1 <= model.k <= len(y_tr)
    assert model.h > 0.0
    assert model.h in default_bandwidth_grid(y_tr)


def test_nnkcde_skips_oversized_k_with_warning():
    y = generate("ar", 200, 3)
    u_tr, y_tr, u_va, y_va = split_series(y)
    with pytest.warns(RuntimeWarning, match="skipping k"):
        model = nnkcde_fit(
            u_tr, y_tr, u_va, y_va, lo=-3, hi=3, k_grid=[5, 10_000]
        )
    assert model.k == 5
    with pytest.raises(ValueError):
        nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3, k_grid=[10_000])
    with pytest.raises(ValueError, match="k must be an integer"):  # not k=2
        nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3, k_grid=[2.5, 5])


def test_nnkcde_on_tied_design_matches_full_sort(monkeypatch):
    # responses on a 0.1 grid make many lag vectors tie in distance
    y = np.round(generate("ar", 1500, 4), 1)
    u_tr, y_tr, u_va, y_va = split_series(y)
    assert u_va.shape[0] > ROW_BLOCK
    fast = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-6, hi=5, grid_size=201)
    fast_dens = fast.predict_density_batch(u_va)

    # the written-out KDE over each row's stable-argsort neighbors
    order = np.argsort(pairwise_sq_dists(u_va, u_tr), axis=1, kind="stable")
    for grid in (fast.grid(), np.linspace(-6, 5, 2001)):
        raw = np.empty((u_va.shape[0], grid.size))
        for r, near in enumerate(order[:, : fast.k]):
            diff = (grid[None, None, :] - y_tr[near][None, :, None]) / fast.h
            raw[r] = np.exp(-0.5 * diff * diff).mean(axis=1) / (
                fast.h * np.sqrt(2.0 * np.pi)
            )
        want = renormalize_rows(raw, grid)[0]
        got = estimator.density_rows(fast, fast.row_state(u_va), grid).density
        assert np.array_equal(got, want)

    fallback_rows = []

    def stable_prefix(sq, k):
        fallback_rows.append(sq.shape[0])
        return np.argsort(sq, axis=1, kind="stable")[:, :k]

    monkeypatch.setattr(regression, "nearest_order", stable_prefix)
    ref = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-6, hi=5, grid_size=201)
    # the k-d tree settles untied rows; the tie rule still runs on the rest
    assert sum(fallback_rows) > 0
    assert (fast.k, fast.h) == (ref.k, ref.h)
    assert np.array_equal(fast_dens, ref.predict_density_batch(u_va))


def test_nnkcde_rejects_degenerate_inputs():
    with pytest.raises(DataError):
        nnkcde_fit(np.zeros((0, 1)), np.zeros(0), np.zeros((1, 1)),
                   np.zeros(1), lo=0, hi=1)
    with pytest.raises(DataError):
        default_bandwidth_grid(np.ones(50))
    y = generate("ar", 200, 3)
    u_tr, y_tr, u_va, y_va = split_series(y)
    for h in (0.0, np.nan, np.inf):  # NaN passes a `<= 0` test
        with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
            nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3, h_grid=[0.5, h])
    model = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3)
    with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
        dataclasses.replace(model, h=np.inf)
    with pytest.raises(DataError):
        estimator.predict_density(model, np.zeros(5))
    with pytest.raises(ValueError, match="k must be an integer"):
        NnkcdeModel(u_tr, y_tr, k=2.5, h=model.h, lo=-3, hi=3)


def test_nnkcde_tabulation_peaks_at_its_kernel_matrix_and_outputs():
    # memory linear in the rows: no full-size temporary beside the kernel
    # matrix of the used responses and the raw and renormalized densities
    rng = np.random.default_rng(48)
    u = rng.normal(size=(4000, 3))
    y = rng.normal(size=4000)
    model = NnkcdeModel(u[:3000], y[:3000], k=10, h=0.3, lo=-4.0, hi=4.0,
                        grid_size=2001)
    neighbors = model.row_state(u[3000:])
    grid = model.grid()
    tracemalloc.start()
    try:
        batch = estimator.density_rows(model, neighbors, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kernel_matrix = np.unique(neighbors).size * grid.size * 8
    outputs = batch.raw_density.nbytes + batch.density.nbytes
    # slack: each row thread's two slices of SLICE_ELEMS floats (a running
    # total and a rank's rows) and 1 MB for the index arrays
    slack = regression.ROW_THREADS * 2 * regression.SLICE_ELEMS * 8 + 2**20
    assert peak < kernel_matrix + outputs + slack


def test_nnkcde_kernel_rows_peak_at_one_block_beside_the_outputs():
    # 1000 query rows on a 2001-point grid over 2989 used responses: their
    # whole kernel matrix, 48 MB, would pass the bound of one 8 MB block
    rng = np.random.default_rng(49)
    u = rng.normal(size=(4000, 3))
    y = rng.normal(size=4000)
    model = NnkcdeModel(u[:3000], y[:3000], k=20, h=0.3, lo=-4.0, hi=4.0,
                        grid_size=2001)
    neighbors = model.row_state(u[3000:])
    grid = model.grid()
    assert np.unique(neighbors).size * grid.size > 5 * baselines.KERNEL_BLOCK_ELEMS
    tracemalloc.start()
    try:
        raw = model.raw_rows(neighbors, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = baselines.KERNEL_BLOCK_ELEMS * 8
    # slack: each row thread's two slices of SLICE_ELEMS floats (a running
    # total and a rank's rows, or a block slice's differences) and 1 MB for
    # the index arrays
    slack = regression.ROW_THREADS * 2 * regression.SLICE_ELEMS * 8 + 2**20
    assert peak < raw.nbytes + block + slack


def test_nnkcde_checks_its_arrays_before_the_search(monkeypatch):
    y = generate("ar", 200, 3)
    u_tr, y_tr, u_va, y_va = split_series(y)

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran on unchecked arrays")

    monkeypatch.setattr(baselines, "default_bandwidth_grid", no_search)
    monkeypatch.setattr(baselines, "knn_order", no_search)
    nan_y_tr, nan_y_va = y_tr.copy(), y_va.copy()
    nan_y_tr[3] = nan_y_va[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        nnkcde_fit(u_tr, nan_y_tr, u_va, y_va, lo=-3, hi=3)
    with pytest.raises(ValueError, match="row mismatch"):
        nnkcde_fit(u_tr, y_tr[1:], u_va, y_va, lo=-3, hi=3)
    for val_u, val_y, match in [
        (u_va, nan_y_va, "non-finite"),
        (u_va, y_va[1:], "one value per validation row"),
        (u_va, y_va[:, None], "one value per validation row"),
        (u_va[:, :2], y_va, "3 columns"),
    ]:
        with pytest.raises(DataError, match=match):
            nnkcde_fit(u_tr, y_tr, val_u, val_y, lo=-3, hi=3)


def test_default_bandwidth_grid_is_silverman_times_the_ladder():
    y = generate("nonlinear_mean", 700, 11)
    silverman = 1.06 * float(y.std(ddof=1)) * y.size ** (-0.2)
    assert default_bandwidth_grid(y) == [silverman * m for m in (0.25, 0.5, 1.0, 2.0, 4.0)]


def bench_like_inputs(scenario, n, seed, n_lags):
    """A CLI fit's NNKCDE inputs: lag design, default split, padded range."""
    design = lag_embed(SeriesTable(generate(scenario, n, seed)), n_lags)
    tr, va, _ = temporal_split(design.n_rows, SplitSpec())
    scaler = fit_scaler(design.y[tr.start : tr.stop])
    return (design.u[tr.start : tr.stop], design.y[tr.start : tr.stop],
            design.u[va.start : va.stop], design.y[va.start : va.stop],
            scaler.lo, scaler.hi)


def the_two_searches(u_tr, y_tr, u_va, y_va, lo, hi):
    """Calls of the coefficient-form and the grid-form search on default grids."""
    k_grid, h_grid = k_candidates(None, y_tr.size), default_bandwidth_grid(y_tr)
    order = knn_order(u_tr, u_va, max(k_grid))
    used, where = np.unique(order, return_inverse=True)
    assert lo <= y_tr[used].min() and y_tr[used].max() <= hi
    i_max = int(np.ceil(6.5 * (hi - lo) / (np.pi * min(h_grid))))
    return (
        lambda: baselines._coefficient_search(y_tr[used], where.reshape(order.shape),
                                              y_va, k_grid, h_grid, lo, hi, i_max),
        lambda: baselines._grid_search(y_tr, order, y_va, k_grid, h_grid,
                                       np.linspace(lo, hi, 1001)),
    )


@pytest.mark.slow  # 24 designs, each searched both ways
def test_coefficient_search_picks_the_grid_search_pair():
    for scenario in ("ar", "nonlinear_mean", "nonlinear_variance", "arma_jump"):
        for n_lags in (3, 10):
            for seed in range(3):
                inputs = bench_like_inputs(scenario, 2000, seed, n_lags)
                coef, grid = (search() for search in the_two_searches(*inputs))
                assert coef == grid, (scenario, n_lags, seed)


def grid_form_pair(u_tr, y_tr, u_va, y_va, lo, hi, k_grid, h_grid, grid_size=1001):
    """(k, h) of the grid-form search as nnkcde_fit first wrote it."""
    grid_y = np.linspace(lo, hi, grid_size)
    order = knn_order(u_tr, u_va, max(k_grid))
    keys = (
        (estimator.score_rows(grid_y, raw, y_va).cde.loss, ih, ik)
        for ih, h in enumerate(h_grid)
        for ik, raw in enumerate(kernel_means(y_tr, order, k_grid, grid_y, h))
    )
    _, ih, ik = min(keys)
    return k_grid[ik], h_grid[ih]


def test_nnkcde_takes_the_grid_form_only_where_the_identity_fails(monkeypatch):
    u_tr, y_tr, u_va, y_va, lo, hi = bench_like_inputs("ar", 1200, 12, 3)
    k_grid = [5, 10, 20, 40]

    def refuse(*args):
        raise AssertionError("the search took the wrong path")

    # in range with a cutoff of at most MAX_I_MAX: the coefficient form
    h_grid = default_bandwidth_grid(y_tr)
    monkeypatch.setattr(baselines, "_grid_search", refuse)
    model = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo, hi, k_grid=k_grid, h_grid=h_grid)
    assert (model.k, model.h) == grid_form_pair(u_tr, y_tr, u_va, y_va, lo, hi,
                                                k_grid, h_grid)
    # an infinite bandwidth takes neither form
    with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
        nnkcde_fit(u_tr, y_tr, u_va, y_va, lo, hi, k_grid=k_grid,
                   h_grid=[np.inf] + h_grid)
    monkeypatch.undo()
    monkeypatch.setattr(baselines, "_coefficient_search", refuse)
    width = hi - lo
    fallbacks = [
        # a bandwidth whose cutoff 6.5 width / (pi h) passes MAX_I_MAX
        (lo, hi, [0.0015 * width] + h_grid),
        # used training responses outside [lo, hi]
        (lo + 0.3 * width, hi - 0.3 * width, h_grid),
    ]
    for fit_lo, fit_hi, bandwidths in fallbacks:
        model = nnkcde_fit(u_tr, y_tr, u_va, y_va, fit_lo, fit_hi, k_grid=k_grid,
                           h_grid=bandwidths)
        assert (model.k, model.h) == grid_form_pair(u_tr, y_tr, u_va, y_va, fit_lo,
                                                    fit_hi, k_grid, bandwidths)


def test_coefficient_search_peaks_below_the_grid_form():
    inputs = bench_like_inputs("nonlinear_mean", 2000, 13, 3)
    peaks = []
    for search in the_two_searches(*inputs):
        tracemalloc.start()
        try:
            search()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    coef_peak, grid_peak = peaks
    assert coef_peak < grid_peak


def test_nnkcde_and_garch_need_a_finite_increasing_range():
    y = generate("ar", 200, 3)
    u_tr, y_tr, u_va, y_va = split_series(y)
    model = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3)
    garch = garch_fit(generate("ar", 300, 5), p=1)
    for lo, hi in [(4.0, -4.0), (1.0, 1.0), (-3.0, np.nan), (-np.inf, 3.0)]:
        with pytest.raises(ValueError, match="range"):
            NnkcdeModel(u_tr, y_tr, k=model.k, h=model.h, lo=lo, hi=hi)
        with pytest.raises(ValueError, match="range"):
            dataclasses.replace(garch, lo=lo, hi=hi)
        with pytest.raises(ValueError, match="range"):
            nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# AR(p) + GARCH(1,1)
# ---------------------------------------------------------------------------


def test_degenerate_garch_has_constant_variance():
    model = GarchModel(
        c=0.0, ar=np.empty(0), omega=0.5, alpha=0.0, beta=0.0,
        s2_init=0.5, lo=-3.0, hi=3.0, grid_size=101, loglik=0.0,
    )
    y = np.linspace(-1, 1, 50)
    means, s2 = garch_filter(model, y)
    np.testing.assert_array_equal(means, np.zeros(50))
    np.testing.assert_array_equal(s2, np.full(50, 0.5))
    next_mean, next_s2 = garch_forecast(model, y)
    assert next_mean == 0.0 and next_s2 == 0.5


def test_variance_recursion_matches_direct_loop():
    model = GarchModel(
        c=0.1, ar=np.array([0.4]), omega=0.2, alpha=0.15, beta=0.7,
        s2_init=0.9, lo=-3.0, hi=3.0, grid_size=101, loglik=0.0,
    )
    rng = np.random.default_rng(4)
    y = rng.normal(size=40)
    means, s2 = garch_filter(model, y)
    eps = y[1:] - means
    expect = np.empty(39)
    expect[0] = 0.9
    for t in range(1, 39):
        expect[t] = 0.2 + 0.15 * eps[t - 1] ** 2 + 0.7 * expect[t - 1]
    np.testing.assert_allclose(s2, expect, rtol=1e-12)
    assert np.all(s2 > 0.0)


@pytest.mark.slow  # a statistical recovery check, like the acceptance criteria
def test_garch_recovers_iid_variance():
    # moment identity: unconditional variance = omega / (1 - alpha - beta)
    sigma2 = 1.69
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        y = rng.normal(0.0, np.sqrt(sigma2), 5000)
        model = garch_fit(y, p=0)
        ratios.append(model.unconditional_variance() / sigma2)
    assert abs(np.median(ratios) - 1.0) <= 0.15


@pytest.mark.slow  # a statistical recovery check, like the acceptance criteria
def test_garch_recovers_ar1_coefficient():
    phis = []
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        eps = rng.normal(size=5200)
        y = np.empty(5200)
        y[0] = eps[0]
        for t in range(1, 5200):
            y[t] = 0.5 * y[t - 1] + eps[t]
        model = garch_fit(y[200:], p=1)
        phis.append(model.ar[0])
    assert 0.4 <= np.median(phis) <= 0.6


def test_garch_likelihood_beats_every_start():
    y = generate("nonlinear_variance", 1500, 5)
    model = garch_fit(y, p=3)
    starts, s2_init = garch_starting_points(y, 3)
    likelihood_args = (y[3:], _lag_matrix(y, 3), s2_init)
    for theta0 in starts:
        assert model.loglik >= -garch_negloglik(theta0, *likelihood_args) - 1e-9


def reference_negloglik(theta, y, p, s2_init):
    """The GARCH likelihood as first written, each array built per call."""
    with np.errstate(over="ignore"):
        persistence = PERSISTENCE_CAP * (1.0 / (1.0 + np.exp(-theta[2 + p])))
        mix = 1.0 / (1.0 + np.exp(-theta[3 + p]))
    c, ar, omega = theta[0], theta[1 : 1 + p], np.exp(theta[1 + p])
    alpha, beta = persistence * mix, persistence * (1.0 - mix)
    n = y.shape[0]
    lags = np.column_stack([y[p - lag : n - lag] for lag in range(1, p + 1)])
    eps = y[p:] - c - lags @ ar
    driver = np.empty(eps.shape[0])
    driver[0] = s2_init
    driver[1:] = omega + alpha * eps[:-1] ** 2
    s2 = signal.lfilter([1.0], [1.0, -beta], driver)
    if not np.all(np.isfinite(s2)) or np.any(s2 <= 0.0):
        return np.inf
    ll = -0.5 * np.sum(np.log(2.0 * np.pi) + np.log(s2) + eps * eps / s2)
    return -ll if np.isfinite(ll) else np.inf


@pytest.mark.parametrize("p", [1, 3])
def test_garch_negloglik_keeps_the_bits_of_the_reference(p):
    y = generate("nonlinear_variance", 1500, 8)
    starts, s2_init = garch_starting_points(y, p)
    rng = np.random.default_rng(p)
    thetas = [t + rng.normal(scale=scale, size=t.shape)
              for t in starts for scale in (0.0, 1e-3, 0.1, 1.0, 3.0) for _ in range(3)]
    for k in (p + 2, p + 3):  # logistic arguments where exp overflows
        for x in (-720.0, -710.5, 710.5, 800.0):
            thetas.append(starts[0].copy())
            thetas[-1][k] = x
    for big in (1e200, 1e308, -1e308):  # eps^2, or eps itself, overflows
        thetas.append(starts[1].copy())
        thetas[-1][1 : 1 + p] = big
    thetas.append(starts[2].copy())
    thetas[-1][1 + p] = 800.0  # omega = inf
    assert len(thetas) >= 50
    args = (y[p:], _lag_matrix(y, p), s2_init)
    with np.errstate(over="ignore", invalid="ignore"):
        got = [garch_negloglik(t, *args) for t in thetas]
        want = [reference_negloglik(t, y, p, s2_init) for t in thetas]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
    assert 0 < sum(np.isinf(got)) < len(got) - 30


def test_garch_fit_is_deterministic():
    y = generate("ar", 1000, 6)
    a = garch_fit(y, p=2)
    b = garch_fit(y, p=2)
    assert (a.c, a.omega, a.alpha, a.beta) == (b.c, b.omega, b.alpha, b.beta)
    np.testing.assert_array_equal(a.ar, b.ar)


def test_garch_parameter_constraints_hold():
    y = generate("nonlinear_variance", 2000, 7)
    model = garch_fit(y, p=1)
    assert model.omega > 0.0
    assert model.alpha >= 0.0 and model.beta >= 0.0
    assert model.alpha + model.beta < 1.0
    _, s2 = garch_filter(model, y)
    assert np.all(s2 > 0.0)


def test_garch_flags_explosive_mean():
    rng = np.random.default_rng(8)
    y = np.empty(200)
    y[0] = 1.0
    for t in range(1, 200):
        y[t] = 1.05 * y[t - 1] + rng.normal(scale=0.1)
    with pytest.warns(RuntimeWarning, match="nonstationary"):
        model = garch_fit(y, p=1)
    assert np.abs(model.ar).sum() >= 1.0


def test_garch_input_validation():
    with pytest.raises(DataError):
        garch_fit(np.ones(500), p=0)  # constant series
    with pytest.raises(DataError):
        garch_fit(np.random.default_rng(9).normal(size=79), p=0)  # < 20*(p+4)
    with pytest.raises(DataError):
        garch_fit(np.array([1.0, np.nan] + [0.0] * 100), p=0)
    with pytest.raises(ValueError):
        garch_fit(np.random.default_rng(9).normal(size=200), p=-1)


def test_garch_forecast_matches_a_direct_loop():
    model = GarchModel(
        c=0.2, ar=np.array([0.5, -0.3]), omega=0.1, alpha=0.2, beta=0.6,
        s2_init=0.8, lo=-4.0, hi=4.0, grid_size=101,
    )
    y = np.random.default_rng(14).normal(size=30)
    s2 = 0.8  # the variance of y[2]; each step gives the next one's
    for t in range(2, 30):
        eps = y[t] - (0.2 + 0.5 * y[t - 1] - 0.3 * y[t - 2])
        s2 = 0.1 + 0.2 * eps**2 + 0.6 * s2
    next_mean, next_s2 = garch_forecast(model, y)
    np.testing.assert_allclose(next_mean, 0.2 + 0.5 * y[29] - 0.3 * y[28], rtol=1e-12)
    np.testing.assert_allclose(next_s2, s2, rtol=1e-12)


def expression_raw_rows(means, s2, grid_y):
    """garch_raw_rows as one expression, each step a new array."""
    sd = np.sqrt(s2)
    zz = (grid_y[None, :] - means[:, None]) / sd[:, None]
    return np.exp(-0.5 * zz * zz) / (sd[:, None] * SQRT_2PI)


@settings(max_examples=200, deadline=None)
@example(means=[1e300, -1e300, 0.0], log_s2=[-12.0, 12.0, 0.0])
@given(means=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8),
       log_s2=st.lists(st.floats(-12.0, 12.0), min_size=8, max_size=8))
def test_garch_raw_rows_keep_the_bits_of_the_expression(means, log_s2):
    # means far outside the grid, and s2 from 1e-12 to 1e12
    means = np.array(means)
    s2 = 10.0 ** np.array(log_s2[: means.size])
    grid = np.linspace(-5.0, 5.0, 201)
    with np.errstate(over="ignore", under="ignore"):
        got = garch_raw_rows(means, s2, grid)
        want = expression_raw_rows(means, s2, grid)
    assert got.tobytes() == want.tobytes()


def test_garch_raw_rows_peak_at_the_output():
    rng = np.random.default_rng(15)
    means, s2 = rng.normal(size=1000), rng.uniform(0.1, 2.0, size=1000)
    grid = np.linspace(-5.0, 5.0, 2001)
    tracemalloc.start()
    try:
        out = garch_raw_rows(means, s2, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2**20


def test_garch_density_rows_are_renormalized_gaussians():
    means = np.array([0.0, 1.0])
    s2 = np.array([1.0, 0.25])
    grid = np.linspace(-6.0, 6.0, 1201)
    dens = garch_density_rows(means, s2, grid).density
    for r in range(2):
        expected = stats.norm.pdf(grid, means[r], np.sqrt(s2[r]))
        expected /= np.trapezoid(expected, grid)
        np.testing.assert_allclose(dens[r], expected, atol=1e-12)


def test_garch_quantiles_match_gaussian_closed_form():
    mu, s2 = 0.3, 0.81
    grid = np.linspace(mu - 8 * np.sqrt(s2), mu + 8 * np.sqrt(s2), 2001)
    dens = garch_density_rows(np.array([mu]), np.array([s2]), grid).density[0]
    taus = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    q = quantiles_from_grid_density(grid, dens, taus)
    expected = mu + np.sqrt(s2) * stats.norm.ppf(taus)
    np.testing.assert_allclose(q, expected, atol=1e-3)
