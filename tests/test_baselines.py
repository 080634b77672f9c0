"""Baseline estimators: neighbor-KDE densities and AR-GARCH."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import signal, stats

from flexts import baselines, estimator, regression
from flexts.errors import DataError
from flexts.baselines import (
    PERSISTENCE_CAP,
    GarchModel,
    _lag_matrix,
    NnkcdeModel,
    garch_density_rows,
    garch_filter,
    garch_fit,
    garch_forecast,
    garch_negloglik,
    garch_starting_points,
    default_bandwidth_grid,
    nnkcde_fit,
)
from flexts.estimator import quantiles_from_grid_density, renormalize_rows
from flexts.regression import ROW_BLOCK, pairwise_sq_dists
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
    for h in (0.0, np.nan):  # NaN passes a `<= 0` test
        with pytest.raises(ValueError, match="bandwidths must be positive"):
            nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3, h_grid=[0.5, h])
    model = nnkcde_fit(u_tr, y_tr, u_va, y_va, lo=-3, hi=3)
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
