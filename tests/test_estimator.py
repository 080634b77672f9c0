"""Fitting, selection, prediction, and importance for the density estimator."""

import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexts import estimator, evaluation, regression, scenarios
from flexts.baselines import GarchModel, NnkcdeModel, nnkcde_fit
from flexts.basis import Scaler, fit_scaler
from flexts.errors import DataError, NumericError
from flexts.estimator import (
    CoefficientModel,
    FitConfig,
    density_rows,
    fit,
    importance,
    predict_density,
    predict_density_batch,
    predict_quantiles,
    quantiles_from_grid_density,
    renormalize_rows,
)
from flexts.evaluation import cde_loss_from_coeffs
from flexts.features import DesignMatrix, SeriesTable, SplitSpec, lag_embed
from flexts.regression import BACKENDS, CoefficientPredictions, LassoModel
from flexts.scenarios import generate


def ar_design(n=1200, seed=0, n_lags=3):
    y = generate("ar", n=n, seed=seed)
    return lag_embed(SeriesTable(response=y), n_lags=n_lags)


def manual_model(coeffs, lo=0.0, hi=2.0, i_selected=None):
    """A model whose backend predicts the same coefficients everywhere."""
    coeffs = np.asarray(coeffs, dtype=float)
    d = 2
    backend = LassoModel(
        intercept=coeffs,
        coef=np.zeros((d, coeffs.size)),
        coef_std=np.zeros((d, coeffs.size)),
        lam=1.0,
        feature_mean=np.zeros(d),
        feature_scale=np.ones(d),
    )
    return CoefficientModel(
        scaler=Scaler(lo=lo, hi=hi, pad=0.0),
        basis="cosine",
        i_max=coeffs.size - 1,
        i_selected=coeffs.size - 1 if i_selected is None else i_selected,
        grid_size=1001,
        backend_kind="lasso",
        hyper=1.0,
        backend=backend,
        val_losses=np.zeros(coeffs.size),
        val_std_errors=np.zeros(coeffs.size),
        candidate_hypers=[1.0],
        candidate_losses=[0.0],
        feature_names=["lag1", "lag2"],
    )


@pytest.mark.parametrize("backend", ["nw", "knn", "lasso"])
def test_empty_hyper_grid_is_rejected(backend):
    with pytest.raises(ValueError, match="hyper_grid is empty"):
        FitConfig(backend=backend, hyper_grid=())


def small_nnkcde():
    rng = np.random.default_rng(4)
    return NnkcdeModel(train_u=rng.normal(size=(40, 2)), train_y=rng.normal(size=40),
                       k=5, h=0.5, lo=-3.0, hi=3.0, grid_size=101)


def test_every_model_checks_query_rows_alike():
    for model in (manual_model([1.0, 0.2]), small_nnkcde()):
        one_row = model.row_state(np.array([0.3, -0.1]), None, None)
        rows = model.row_state(np.array([[0.3, -0.1]]), None, None)
        assert np.array_equal(density_rows(model, one_row, model.grid()).density,
                              density_rows(model, rows, model.grid()).density)
        for bad, match in [(np.zeros(3), "2 columns"),
                           (np.zeros((4, 1)), "2 columns"),
                           (np.array([[0.0, np.nan]]), "non-finite")]:
            with pytest.raises(DataError, match=match):
                model.row_state(bad, None, None)


def test_every_model_predicts_one_row_density_alike():
    for model in (manual_model([1.0, 0.2]), small_nnkcde()):
        predict = lambda u: predict_density(model, u).density
        one_row = predict(np.array([0.3, -0.1]))
        assert one_row.ndim == 1
        assert np.array_equal(one_row, predict(np.array([[0.3, -0.1]])))
        with pytest.raises(DataError, match="single covariate row"):
            predict(np.zeros((3, 2)))


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(i_max=0)
    with pytest.raises(ValueError):
        FitConfig(grid_size=1000)
    with pytest.raises(ValueError):
        FitConfig(grid_size=51)
    with pytest.raises(ValueError):
        FitConfig(basis="legendre")
    with pytest.raises(ValueError):
        FitConfig(backend="forest")


@pytest.mark.parametrize("backend", ["nw", "knn", "lasso"])
def test_fit_selects_nontrivial_expansion_on_ar(backend):
    model = fit(ar_design(), config=FitConfig(backend=backend, i_max=20))
    assert 1 <= model.i_selected <= 20
    assert model.val_losses.shape == (21,)
    best = model.val_losses[model.i_selected]
    assert best == min(model.val_losses)
    assert best < model.val_losses[0]  # conditioning helps on AR data
    assert model.hyper in [float(h) for h in model.candidate_hypers]


def test_fit_is_deterministic():
    a = fit(ar_design(seed=3))
    b = fit(ar_design(seed=3))
    assert a.i_selected == b.i_selected and a.hyper == b.hyper
    np.testing.assert_array_equal(a.val_losses, b.val_losses)
    u = ar_design(seed=4).u[:5]
    np.testing.assert_array_equal(
        predict_density_batch(a, u).density, predict_density_batch(b, u).density
    )


def test_fit_reports_losses_it_would_recompute():
    design = ar_design()
    model = fit(design, config=FitConfig(backend="knn"))
    tr, va = model.diagnostics["n_train"], model.diagnostics["n_val"]
    b_hat = model.backend.predict(design.u[tr : tr + va]).b_hat
    z_va = model.scaler.transform(design.y[tr : tr + va])
    for i_cut in (0, model.i_selected, model.i_max):
        rep = cde_loss_from_coeffs(b_hat, z_va, i_cut)
        assert model.val_losses[i_cut] == pytest.approx(rep.loss, abs=1e-12)
        assert model.val_std_errors[i_cut] == pytest.approx(rep.std_error, abs=1e-12)


def test_tied_candidates_prefer_the_earlier_one():
    design = ar_design(n=400)
    big = 1e6  # both radii cover every point, so the curves tie exactly
    model = fit(design, config=FitConfig(backend="nw", hyper_grid=(big, 2 * big)))
    assert model.hyper == big


def test_iid_uniform_recovers_flat_density():
    # pad=0 so the training range maps onto [0,1] exactly and the flat
    # density has a one-term expansion; sup-norm checked on the central
    # 90% of the grid, medians over 10 seeds
    sups, cuts = [], []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        y = rng.uniform(2.0, 5.0, 2000)
        design = lag_embed(SeriesTable(response=y), n_lags=3)
        model = fit(design, config=FitConfig(backend="nw", pad=0.0))
        cuts.append(model.i_selected)
        batch = predict_density_batch(model, design.u[-20:])
        g = batch.grid_y.size
        central = slice(int(0.05 * g), int(0.95 * g) + 1)
        sups.append(float(np.abs(batch.density[:, central] - 1.0 / 3.0).max()))
    assert np.median(cuts) <= 3
    assert np.median(sups) <= 0.1


def test_at_i_max_selection_warns():
    with pytest.warns(RuntimeWarning, match="i_max"):
        model = fit(ar_design(), config=FitConfig(backend="nw", i_max=1))
    assert model.i_selected == 1
    assert model.diagnostics["at_i_max"]


def test_refit_final_absorbs_validation_rows():
    design = ar_design(seed=5)
    base = fit(design, config=FitConfig(backend="knn"))
    refit = fit(design, config=FitConfig(backend="knn", refit_final=True))
    assert refit.i_selected == base.i_selected and refit.hyper == base.hyper
    n_expected = (
        base.diagnostics["n_train"]
        + base.diagnostics["n_val"]
        - refit.diagnostics["n_val_dropped_refit"]
    )
    assert refit.backend.train_u.shape[0] == n_expected
    batch = predict_density_batch(refit, design.u[-3:])
    assert np.all(np.isfinite(batch.density))


def test_a_default_fit_tabulates_no_unread_basis(monkeypatch):
    calls = []
    basis_matrix = estimator.basis_matrix

    def counting(kind, z, i_max):
        calls.append((np.size(z), i_max))
        return basis_matrix(kind, z, i_max)

    # the validation basis is tabulated in evaluation.cde_loss_curve, the rest here
    monkeypatch.setattr(estimator, "basis_matrix", counting)
    monkeypatch.setattr(evaluation, "basis_matrix", counting)
    design = ar_design(n=600)
    model = fit(design, config=FitConfig(backend="nw", i_max=8))
    # the training and validation responses, then the model's grid up to I
    assert len(calls) == 3
    assert calls[-1] == (model.grid_size, model.i_selected)


def spy_on_sweep(monkeypatch, backend, edit=lambda c, b_hat: b_hat):
    """Record (hypers, validation predictions) of a backend's sweep; ``edit``
    may replace candidate c's coefficients before fit scores them."""
    cls, seen = BACKENDS[backend], []
    sweep = cls.sweep

    def spy(train_u, train_phi, eval_u, hyper_grid=None):
        hypers, preds, swept = sweep(train_u, train_phi, eval_u, hyper_grid)
        preds = [CoefficientPredictions(edit(c, p.b_hat.copy()), p.n_fallback)
                 for c, p in enumerate(preds)]
        seen.append((list(hypers), preds))
        return hypers, preds, swept

    monkeypatch.setattr(cls, "sweep", staticmethod(spy))
    return seen


def test_a_non_finite_loss_names_the_first_bad_candidate_and_cutoff(monkeypatch):
    def poison(c, b_hat):
        if c in (1, 2):  # candidate 2 turns bad at a smaller I, but later in the grid
            b_hat[:, 5 - 2 * (c - 1):] = np.nan
        return b_hat

    seen = spy_on_sweep(monkeypatch, "knn", poison)
    with pytest.raises(NumericError) as err:
        fit(ar_design(n=600), config=FitConfig(backend="knn", hyper_grid=(5, 10, 20)))
    hypers = seen[0][0]
    assert str(err.value) == (
        f"non-finite validation loss at I=5 for knn candidate {hypers[1]!r}"
    )


@pytest.mark.parametrize("backend", ["nw", "knn", "lasso"])
@pytest.mark.parametrize("tie", [False, True])
def test_fit_picks_the_brute_force_minimum(monkeypatch, backend, tie):
    # with the tie, every expansion stops after I=2: the losses at I=2..6 are
    # equal in both forms (fewer than 8 terms sum in order), so I=2 must win
    def flatten(c, b_hat):
        if tie:
            b_hat[:, 3:] = 0.0
        return b_hat

    seen = spy_on_sweep(monkeypatch, backend, flatten)
    design = ar_design(n=600)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # I may reach i_max
        model = fit(design, config=FitConfig(backend=backend, i_max=6))
    hypers, preds = seen[0]
    n_tr, n_va = model.diagnostics["n_train"], model.diagnostics["n_val"]
    z_va = model.scaler.transform(design.y[n_tr : n_tr + n_va])
    ref = np.array([[cde_loss_from_coeffs(p.b_hat, z_va, i).loss for i in range(7)]
                    for p in preds])
    loss, i_best, c_best = min((ref[c, i], i, c) for c in range(len(hypers))
                               for i in range(7))
    assert (model.hyper, model.i_selected) == (float(hypers[c_best]), i_best)
    assert model.diagnostics["val_loss"] == pytest.approx(loss, abs=1e-12)
    np.testing.assert_allclose(model.candidate_losses, ref.min(axis=1),
                               rtol=0, atol=1e-12)
    if tie:
        assert i_best == 2 and ref[c_best, 3] == loss


@pytest.mark.parametrize("refit_final, paths", [(False, 1), (True, 2)])
def test_a_default_lasso_fit_forms_the_moments_once_per_path(monkeypatch, refit_final,
                                                              paths):
    # the default penalties come from the sweep's own path, not a pass of their own
    seen = []
    moments = regression._lasso_moments

    def counting(train_u, train_phi):
        seen.append(train_u.shape)
        return moments(train_u, train_phi)

    monkeypatch.setattr(regression, "_lasso_moments", counting)
    model = fit(ar_design(n=600), config=FitConfig(backend="lasso",
                                                    refit_final=refit_final))
    n_tr = model.diagnostics["n_train"]
    assert seen[0] == (n_tr, 3) and len(seen) == paths


def test_fit_split_preconditions():
    short = lag_embed(SeriesTable(response=generate("ar", 200, 0)[:44]), n_lags=3)
    with pytest.raises(DataError, match="at least 30"):
        fit(short)  # 41 design rows -> train block of 29
    fifty = lag_embed(SeriesTable(response=generate("ar", 200, 0)[:53]), n_lags=3)
    with pytest.raises(DataError, match="empty split block"):
        fit(fifty, split=SplitSpec(0.98, 0.01, 0.01))


def test_knn_candidate_filtering():
    design = ar_design(n=400)
    with pytest.warns(RuntimeWarning, match="skipping k"):
        model = fit(design, config=FitConfig(backend="knn", hyper_grid=(5, 10**6)))
    assert model.hyper == 5.0
    with pytest.raises(ValueError):
        fit(design, config=FitConfig(backend="knn", hyper_grid=(10**6,)))
    with pytest.raises(ValueError, match="k must be an integer"):  # not [2, 7]
        fit(design, config=FitConfig(backend="knn", hyper_grid=(2.5, 7.9)))


def test_predict_checks_covariates():
    model = fit(ar_design(n=400))
    with pytest.raises(DataError):
        predict_density(model, np.zeros(5))
    with pytest.raises(DataError):
        predict_density(model, np.array([0.0, np.nan, 0.0]))


def test_constant_coefficient_column_is_preserved():
    model = fit(ar_design(n=600))
    pred = model.row_state(ar_design(n=600).u[:8])
    np.testing.assert_array_equal(pred.b_hat[:, 0], np.ones(8))


def test_density_is_clipped_and_renormalized():
    # beta = (1, 0.8): the raw expansion dips below zero near z = 1
    model = manual_model([1.0, 0.8])
    est = predict_density(model, np.zeros(2))
    assert est.raw_density.min() < 0.0
    assert est.density.min() >= 0.0
    assert np.trapezoid(est.density, est.grid_y) == pytest.approx(1.0, abs=1e-8)
    assert not est.degenerate


def test_flat_expansion_gives_exact_uniform_density():
    model = manual_model([1.0, 0.0])
    est = predict_density(model, np.zeros(2))
    np.testing.assert_allclose(est.density, 0.5, rtol=1e-12)
    q = predict_quantiles(model, np.zeros(2), [0.25, 0.5, 0.75])
    np.testing.assert_allclose(q, [0.5, 1.0, 1.5], atol=1e-9)


def test_appending_zero_coefficients_keeps_raw_density():
    a = manual_model([1.0, 0.4, 0.0], i_selected=1)
    b = manual_model([1.0, 0.4, 0.0], i_selected=2)
    u = np.zeros(2)
    np.testing.assert_array_equal(
        predict_density(a, u).raw_density, predict_density(b, u).raw_density
    )


def test_density_batch_grid_override():
    model = fit(ar_design(n=400))
    u = np.zeros((2, 3))
    fine = np.linspace(model.scaler.lo, model.scaler.hi, 2001)
    batch = density_rows(model, model.row_state(u), fine)
    assert batch.grid_y.shape == (2001,)
    assert batch.density.shape == (2, 2001)
    np.testing.assert_allclose(np.trapezoid(batch.density, fine, axis=1), 1.0)
    # on the fit-time grid it is the batch prediction, bit for bit, whether
    # the basis is the one the model prepared or tabulated afresh on a copy
    batch = predict_density_batch(model, u)
    for grid_y in (model.grid(), np.array(model.grid())):
        own = density_rows(model, model.row_state(u), grid_y)
        assert own.density.tobytes() == batch.density.tobytes()
        assert own.raw_density.tobytes() == batch.raw_density.tobytes()


def test_estimator_helpers_are_one_protocol_call():
    design = ar_design(n=600)
    models = [fit(design, config=FitConfig(backend=b)) for b in BACKENDS]
    scaler = fit_scaler(design.y[:400])
    models.append(nnkcde_fit(design.u[:400], design.y[:400], design.u[400:500],
                             design.y[400:500], scaler.lo, scaler.hi))
    u, taus = design.u[-15:], np.linspace(0.05, 0.95, 19)
    for model in models:
        want = density_rows(model, model.row_state(u), model.grid())
        got = predict_density_batch(model, u)
        for name in ("grid_y", "density", "raw_density", "degenerate"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        q = quantiles_from_grid_density(want.grid_y, want.density, taus)
        assert predict_quantiles(model, u, taus).tobytes() == q.tobytes()
        # one row: the same call on a one-row batch
        want = density_rows(model, model.row_state(u[:1]), model.grid())
        one = predict_density(model, u[0])
        assert one.density.tobytes() == want.density[0].tobytes()
        assert one.raw_density.tobytes() == want.raw_density[0].tobytes()
        assert one.degenerate == want.degenerate[0]
        q = quantiles_from_grid_density(want.grid_y, want.density[0], taus)
        assert predict_quantiles(model, u[0], taus).tobytes() == q.tobytes()


def test_quantiles_monotone_and_validated():
    model = fit(ar_design(n=800))
    taus = np.linspace(0.05, 0.95, 19)
    rng = np.random.default_rng(2)
    q = predict_quantiles(model, rng.normal(size=(6, 3)), taus)
    assert q.shape == (6, 19)
    assert np.all(np.diff(q, axis=1) >= 0.0)
    with pytest.raises(ValueError):
        predict_quantiles(model, np.zeros(3), [0.0])
    with pytest.raises(ValueError):
        predict_quantiles(model, np.zeros(3), [1.0])
    # NaN passes both `<= 0` and `>= 1` tests; it is rejected like the CLI does
    for taus in ([np.nan], [0.5, np.nan], [np.inf]):
        with pytest.raises(ValueError, match=r"quantile level .* outside \(0, 1\)"):
            predict_quantiles(model, np.zeros(3), taus)
    with pytest.raises(ValueError, match="no quantile levels"):
        predict_quantiles(model, np.zeros(3), [])


def test_quantiles_match_rejection_sampling():
    model = fit(ar_design(n=2000, seed=6))
    u = np.array([0.4, -0.2, 0.1])
    est = predict_density(model, u)
    rng = np.random.default_rng(7)
    lo, hi = est.grid_y[0], est.grid_y[-1]
    fmax = est.density.max()
    xs = rng.uniform(lo, hi, 400000)
    keep = rng.uniform(0, fmax, 400000) <= np.interp(xs, est.grid_y, est.density)
    sample = xs[keep]
    assert sample.size > 50000
    taus = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    q_model = predict_quantiles(model, u, taus)
    q_mc = np.quantile(sample, taus)
    np.testing.assert_allclose(q_model, q_mc, atol=2e-2)


def test_quantiles_of_density_rows_match_one_row_at_a_time():
    model = fit(ar_design(n=800))
    batch = predict_density_batch(model, np.random.default_rng(3).normal(size=(7, 3)))
    taus = np.linspace(0.05, 0.95, 19)
    q = quantiles_from_grid_density(batch.grid_y, batch.density, taus)
    assert q.shape == (7, 19)
    steps = np.diff(batch.grid_y)
    for r, d in enumerate(batch.density):
        # the single-row inversion, written out
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * steps)])
        expected = np.interp(taus, cdf / cdf[-1], batch.grid_y)
        assert np.array_equal(q[r], expected)
        assert np.array_equal(
            quantiles_from_grid_density(batch.grid_y, d, taus), expected
        )


def test_renormalize_rows_makes_massless_rows_uniform():
    grid = np.linspace(-1.0, 3.0, 101)
    rows = np.vstack([np.ones(101), np.zeros(101), np.full(101, np.nan),
                      np.full(101, 1e-320)])  # a subnormal mass
    dens, degenerate = renormalize_rows(rows, grid)
    assert degenerate.tolist() == [False, True, True, True]
    np.testing.assert_allclose(dens[0], 0.25, rtol=1e-12)
    assert np.all(dens[1:] == 1.0 / 4.0)


def test_quantiles_need_positive_mass():
    with pytest.raises(NumericError):
        quantiles_from_grid_density(
            np.linspace(0, 1, 101), np.zeros(101), [0.5]
        )


def test_lasso_importance_concentrates_on_true_lags():
    design = ar_design(n=4000, n_lags=6)
    model = fit(design, config=FitConfig(backend="lasso"))
    scores = importance(model)
    assert scores.shape == (6,)
    assert scores[:3].min() > scores[3:].max()


def test_permutation_importance_finds_the_relevant_lag():
    y = generate("nonlinear_variance", n=1500, seed=8)
    design = lag_embed(SeriesTable(response=y), n_lags=4)
    model = fit(design, config=FitConfig(backend="knn"))
    n_tr, n_va = model.diagnostics["n_train"], model.diagnostics["n_val"]
    u_val = design.u[n_tr : n_tr + n_va]
    y_val = design.y[n_tr : n_tr + n_va]
    scores = importance(model, u_val, y_val, seed=1)
    assert np.all(scores >= 0.0)
    assert np.argmax(scores) == 2  # only y_{t-3} drives the variance
    again = importance(model, u_val, y_val, seed=1)
    np.testing.assert_array_equal(scores, again)


def test_permutation_importance_requires_data():
    model = fit(ar_design(n=400))
    with pytest.raises(ValueError):
        importance(model)


def test_permutation_importance_needs_a_permutation():
    design = ar_design(n=400)
    model = fit(design)
    val = slice(model.diagnostics["n_train"], None)
    for n_permutations in (0, -2):
        with pytest.raises(ValueError, match="n_permutations must be >= 1"):
            importance(model, design.u[val], design.y[val], n_permutations)
    lasso = fit(design, config=FitConfig(backend="lasso"))
    assert importance(lasso, n_permutations=0).shape == (3,)  # reads no permutations


def test_fit_accepts_handbuilt_design():
    rng = np.random.default_rng(9)
    n = 80
    u = rng.normal(size=(n, 2))
    y = 0.5 * u[:, 0] + rng.normal(size=n)
    design = DesignMatrix(u=u, y=y, feature_names=["a", "b"], origin_index=np.arange(n))
    model = fit(design, config=FitConfig(backend="knn", i_max=4))
    assert model.feature_names == ["a", "b"]
    assert (model.features, model.split) == (None, SplitSpec())


# ---------------------------------------------------------------------------
# properties of tabulated densities
# ---------------------------------------------------------------------------


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def response_grids(draw):
    lo = draw(finite(-5.0, 5.0))
    return np.linspace(lo, lo + draw(finite(0.1, 10.0)), draw(st.integers(11, 301)))


@st.composite
def model_states(draw, grid_y):
    """One of the three methods' models on grid_y's range, and a row state for it."""
    lo, hi = grid_y[0], grid_y[-1]
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["flexcode", "nnkcde", "garch"]))
    if kind == "flexcode":
        n_coef = draw(st.integers(1, 12))
        model = manual_model(np.zeros(n_coef), lo=lo, hi=hi,
                             i_selected=draw(st.integers(0, n_coef - 1)))
        b_hat = draw(arrays(float, (n, n_coef), elements=finite(-5.0, 5.0)))
        # a negative constant expansion clips to zero: a row with no mass
        b_hat = np.vstack([b_hat, np.eye(1, n_coef) * -1.0])
        return model, CoefficientPredictions(b_hat=b_hat)
    if kind == "nnkcde":
        n_train = draw(st.integers(1, 30))
        train_y = draw(arrays(float, n_train, elements=finite(-20.0, 20.0)))
        k = draw(st.integers(1, n_train))
        model = NnkcdeModel(train_u=np.zeros((n_train, 1)), train_y=train_y, k=k,
                            h=draw(finite(0.01, 5.0)), lo=lo, hi=hi)
        neighbors = arrays(np.intp, (n, k), elements=st.integers(0, n_train - 1))
        return model, draw(neighbors)
    model = GarchModel(c=0.0, ar=np.zeros(0), omega=1.0, alpha=0.1, beta=0.1,
                       s2_init=1.0, lo=lo, hi=hi, grid_size=1001)
    means = draw(arrays(float, n, elements=finite(-20.0, 20.0)))
    return model, (means, draw(arrays(float, n, elements=finite(1e-4, 100.0))))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), grid_y=response_grids())
def test_density_rows_are_nonnegative_with_unit_mass(data, grid_y):
    model, state = data.draw(model_states(grid_y))
    dens = density_rows(model, state, grid_y).density
    assert np.all(dens >= 0.0)
    np.testing.assert_allclose(np.trapezoid(dens, grid_y, axis=1), 1.0, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(grid_y=response_grids(), data=st.data())
def test_quantiles_are_nondecreasing_in_tau(grid_y, data):
    dens = data.draw(arrays(float, (3, grid_y.size), elements=finite(0.0, 10.0)))
    dens[:, grid_y.size // 2] += 1.0  # positive mass in every row
    taus = np.sort(data.draw(arrays(float, data.draw(st.integers(2, 20)),
                                    elements=finite(0.001, 0.999))))
    q = quantiles_from_grid_density(grid_y, dens, taus)
    assert np.all(np.diff(q, axis=1) >= 0.0)


# ---------------------------------------------------------------------------
# score_rows: held-out rows scored in slices on the row threads
# ---------------------------------------------------------------------------


def whole_array_scores(grid, raw, eval_y, truth, taus):
    """What score_rows reports, from the whole post-processed density."""
    density, _ = renormalize_rows(raw, grid)
    return (evaluation.cde_loss_grid(grid, density, eval_y),
            evaluation.oracle_cde_loss(truth, density, grid),
            quantiles_from_grid_density(grid, density, taus))


@st.composite
def scoring_problems(draw):
    """Raw rows of 1, step - 1, step, step + 1 or 3 step + 1 rows on a grid of
    101-2001 points (step a slice's rows), with rows of no and of subnormal
    mass, responses outside the grid, and positive true density rows."""
    size = draw(st.integers(101, 2001))
    step = max(1, regression.SLICE_ELEMS // size)
    n_rows = draw(st.sampled_from([1, step - 1, step, step + 1, 3 * step + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.linspace(-3.0, 3.0, size)
    raw = rng.normal(0.2, 1.0, size=(n_rows, size))  # clipped where negative
    n_special = draw(st.integers(0, min(n_rows, 3)))
    specials = rng.choice(n_rows, n_special, replace=False)
    for row, kind in zip(specials, draw(st.lists(
            st.sampled_from(["zero", "negative", "subnormal"]),
            min_size=n_special, max_size=n_special))):
        raw[row] = {"zero": 0.0, "negative": -1.0, "subnormal": 1e-320}[kind]
    eval_y = rng.uniform(-4.0, 4.0, size=n_rows)  # a quarter off the grid
    truth = np.exp(-0.5 * (grid - rng.normal(size=(n_rows, 1))) ** 2)
    return grid, raw, eval_y, truth


@settings(max_examples=40, deadline=None)
@given(problem=scoring_problems())
def test_score_rows_reports_the_whole_array_scores_bit_for_bit(problem):
    grid, raw, eval_y, truth = problem
    taus = np.round(np.arange(1, 20) * 0.05, 2)
    want_cde, want_oracle, want_q = whole_array_scores(grid, raw, eval_y, truth, taus)
    n_slices = -(-len(raw) // max(1, regression.SLICE_ELEMS // grid.size))
    for threads in (1, 2):
        ran = set()

        def truth_rows(lo, hi):
            ran.add(threading.get_ident())
            return truth[lo:hi]

        with mock.patch.object(regression, "ROW_THREADS", threads):
            got = estimator.score_rows(grid, raw, eval_y, truth_rows, taus)
        assert len(ran) == min(threads, n_slices)
        assert got.cde == want_cde
        assert got.oracle == want_oracle
        assert got.quantiles.tobytes() == want_q.tobytes()
    # each part alone, as a bench cell asks for the oracle on its own grid
    assert estimator.score_rows(grid, raw, eval_y) == estimator.RowScores(cde=want_cde)
    only_oracle = estimator.score_rows(grid, raw, truth=lambda lo, hi: truth[lo:hi])
    assert only_oracle == estimator.RowScores(oracle=want_oracle)


def test_score_rows_holds_the_raw_rows_and_its_slices_only():
    # 4,000 held-out rows on a 1,001-point grid, scored as flexts evaluate
    # scores them: loss, oracle loss against a scenario's truth, 19 quantiles
    rng = np.random.default_rng(50)
    grid = np.linspace(-4.0, 4.0, 1001)
    u = rng.normal(size=(4000, 3))
    eval_y = rng.normal(size=4000)
    taus = np.round(np.arange(1, 20) * 0.05, 2)
    full = u.shape[0] * grid.size * 8  # bytes of one (rows x grid) array

    def traced_peak(score):
        tracemalloc.start()
        try:
            raw = np.empty((u.shape[0], grid.size))
            raw[:] = rng.normal(0.1, 0.2, size=grid.size)
            score(raw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sliced = traced_peak(lambda raw: estimator.score_rows(
        grid, raw, eval_y,
        lambda lo, hi: scenarios.true_rows("ar", u[lo:hi], grid), taus))
    whole = traced_peak(lambda raw: whole_array_scores(
        grid, raw, eval_y, scenarios.density_rows("ar", u, grid), taus))
    # measured: sliced 35.9 MB, whole-array 224.2 MB, one array 32.0 MB
    report = f"sliced {sliced / 1e6:.1f} MB, whole-array {whole / 1e6:.1f} MB"
    assert sliced < 2 * full < whole, report
