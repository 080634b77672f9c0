"""Density loss estimators and the pinball forecast metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexts.basis import BASIS_KINDS, SQRT2, basis_matrix, fit_scaler
from flexts.evaluation import (
    cde_loss_curve,
    cde_loss_from_coeffs,
    cde_loss_grid,
    interp_rows,
    oracle_cde_loss,
    pinball_loss,
)
from flexts.features import lag_embed, temporal_split, SeriesTable
from flexts.regression import nw_predict
from flexts.scenarios import generate

QUAD_GRID = np.linspace(0.0, 1.0, 4001)


def quadrature(values):
    return float(np.trapezoid(values, QUAD_GRID))


def test_constant_density_gives_minus_one_exactly():
    n = 37
    b_hat = np.ones((n, 1))
    z = np.linspace(0.05, 0.95, n)
    rep = cde_loss_from_coeffs(b_hat, z, i_cut=0)
    assert rep.loss == -1.0
    assert rep.std_error == 0.0
    assert rep.n_eval == n and rep.n_outside == 0


def test_coefficient_loss_matches_quadrature_oracle():
    rng = np.random.default_rng(0)
    n = 50
    b_hat = np.column_stack([np.ones(n), np.full(n, 0.4), np.full(n, -0.2)])
    z = rng.random(n)
    for i_cut in (0, 1, 2):
        rep = cde_loss_from_coeffs(b_hat, z, i_cut)
        contribs = []
        for t in range(n):
            phi_grid = basis_matrix("cosine", QUAD_GRID, i_cut)
            fhat_grid = phi_grid @ b_hat[t, : i_cut + 1]
            phi_t = basis_matrix("cosine", np.array([z[t]]), i_cut)[0]
            fhat_t = float(phi_t @ b_hat[t, : i_cut + 1])
            contribs.append(quadrature(fhat_grid**2) - 2.0 * fhat_t)
        assert rep.loss == pytest.approx(np.mean(contribs), abs=1e-10)
        oracle_se = np.std(contribs, ddof=1) / np.sqrt(n)
        assert rep.std_error == pytest.approx(oracle_se, rel=1e-8)


def test_out_of_range_responses_counted_and_crossless():
    b_hat = np.array([[1.0, 0.5], [1.0, 0.5]])
    rep = cde_loss_from_coeffs(b_hat, np.array([0.5, 1.3]), i_cut=1)
    inside = 1 + 0.25 - 2 * (1 + 0.5 * SQRT2 * np.cos(np.pi * 0.5))
    outside = 1 + 0.25
    assert rep.loss == pytest.approx((inside + outside) / 2, abs=1e-12)
    assert rep.n_outside == 1


def test_loss_curve_matches_per_cutoff_calls():
    rng = np.random.default_rng(1)
    b_hat = rng.normal(size=(40, 6))
    b_hat[:, 0] = 1.0
    z = np.concatenate([rng.random(38), [-0.2, 1.1]])
    losses, ses = cde_loss_curve(b_hat, z)
    for i_cut in range(6):
        rep = cde_loss_from_coeffs(b_hat, z, i_cut)
        assert losses[i_cut] == pytest.approx(rep.loss, abs=1e-12)
        assert ses[i_cut] == pytest.approx(rep.std_error, abs=1e-12)
        assert rep.n_outside == 2


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), n_coef=st.integers(1, 12),
       kind=st.sampled_from(BASIS_KINDS))
def test_loss_curve_matches_every_single_cutoff(data, n, n_coef, kind):
    b_hat = data.draw(arrays(float, (n, n_coef), elements=st.floats(-10.0, 10.0)))
    z = data.draw(arrays(float, n, elements=st.floats(-0.5, 1.5)))
    losses, _ = cde_loss_curve(b_hat, z, kind)
    for i_cut in range(n_coef):
        rep = cde_loss_from_coeffs(b_hat, z, i_cut, kind)
        # the two sum in different orders, so the tolerance is relative to
        # the size of the terms, not to a loss that may cancel to near zero
        terms = np.abs(b_hat[:, : i_cut + 1])
        size = float(np.mean((terms * terms + 2.0 * SQRT2 * terms).sum(axis=1)))
        assert abs(losses[i_cut] - rep.loss) <= 1e-12 * size


def test_grid_loss_uniform_on_0_2():
    grid = np.linspace(0.0, 2.0, 1001)
    densities = np.full((9, grid.size), 0.5)
    eval_y = np.linspace(0.1, 1.9, 9)
    rep = cde_loss_grid(grid, densities, eval_y)
    assert rep.loss == pytest.approx(-0.5, abs=1e-12)
    assert rep.std_error == pytest.approx(0.0, abs=1e-12)


def test_grid_loss_counts_outside_responses():
    grid = np.linspace(0.0, 1.0, 101)
    densities = np.ones((3, grid.size))
    rep = cde_loss_grid(grid, densities, np.array([0.5, -1.0, 2.0]))
    # outside rows keep their integral term but lose the cross term
    assert rep.n_outside == 2
    assert rep.loss == pytest.approx((-1.0 + 1.0 + 1.0) / 3, abs=1e-12)


def test_grid_loss_matches_rowwise_recomputation():
    rng = np.random.default_rng(2)
    grid = np.linspace(-2.0, 3.0, 501)
    centers = rng.uniform(-1.0, 2.0, 20)
    dens = np.exp(-0.5 * (grid - centers[:, None]) ** 2) / np.sqrt(2 * np.pi)
    eval_y = rng.uniform(-2.5, 3.5, 20)
    rep = cde_loss_grid(grid, dens, eval_y)
    contribs = []
    for t in range(20):
        sq = np.trapezoid(dens[t] ** 2, grid)
        if -2.0 <= eval_y[t] <= 3.0:
            cross = np.interp(eval_y[t], grid, dens[t])
        else:
            cross = 0.0
        contribs.append(sq - 2 * cross)
    assert rep.loss == pytest.approx(np.mean(contribs), rel=1e-10)


def test_coefficient_and_grid_forms_agree_after_rescaling():
    # the same estimator scored in scale units and in response units
    # differs by the Jacobian 1/width of the affine response map
    y = generate("ar", n=1200, seed=3)
    design = lag_embed(SeriesTable(response=y), n_lags=3)
    tr, va, _ = temporal_split(design.n_rows)
    scaler = fit_scaler(design.y[list(tr)], pad=0.05)
    i_max = 12
    train_phi = basis_matrix("cosine", scaler.transform(design.y[list(tr)]), i_max)
    b_hat = nw_predict(design.u[list(tr)], train_phi, design.u[list(va)], 0.7).b_hat

    val_y = design.y[list(va)]
    rep_z = cde_loss_from_coeffs(b_hat, scaler.transform(val_y), i_cut=i_max)

    grid_y = np.linspace(scaler.lo, scaler.hi, 1001)
    phi_grid = basis_matrix("cosine", scaler.transform(grid_y), i_max)
    raw_dens = (b_hat @ phi_grid.T) / scaler.width
    rep_y = cde_loss_grid(grid_y, raw_dens, val_y)

    assert rep_y.loss == pytest.approx(rep_z.loss / scaler.width, abs=1e-3)
    assert rep_y.n_outside == rep_z.n_outside


def test_interp_rows_nodes_and_midpoints():
    grid = np.linspace(0.0, 1.0, 11)
    dens = np.vstack([grid * 2.0, np.ones(11)])
    vals, inside = interp_rows(grid, dens, np.array([0.3, 0.55]))
    assert vals[0] == pytest.approx(0.6, abs=1e-12)
    assert vals[1] == pytest.approx(1.0, abs=1e-12)
    assert inside.all()
    vals, inside = interp_rows(grid, dens, np.array([-0.1, 1.1]))
    assert np.all(vals == 0.0) and not inside.any()


def test_single_row_loss_has_zero_se():
    rep = cde_loss_from_coeffs(np.array([[1.0, 0.3]]), np.array([0.4]), 1)
    assert rep.std_error == 0.0 and rep.n_eval == 1


def test_pinball_examples():
    assert pinball_loss(np.array([0.0]), np.array([1.0]), 0.5) == 0.5
    assert pinball_loss(np.array([1.0]), np.array([0.0]), 0.9) == pytest.approx(0.1)


def test_pinball_nonnegative_and_zero_only_at_match():
    rng = np.random.default_rng(4)
    q = rng.normal(size=50)
    y = rng.normal(size=50)
    assert pinball_loss(q, y, 0.3) > 0.0
    assert pinball_loss(y, y, 0.3) == 0.0


def test_pinball_minimized_at_empirical_quantile():
    rng = np.random.default_rng(5)
    y = rng.normal(size=999)
    for tau in (0.1, 0.5, 0.9):
        q_star = np.quantile(y, tau, method="inverted_cdf")
        best = pinball_loss(np.full_like(y, q_star), y, tau)
        for q in rng.normal(size=40):
            assert pinball_loss(np.full_like(y, q), y, tau) >= best - 1e-12


def test_pinball_validation():
    with pytest.raises(ValueError):
        pinball_loss(np.array([0.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        pinball_loss(np.array([0.0]), np.array([1.0, 2.0]), 0.5)


def test_oracle_loss_zero_when_exact():
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 1.0, 301)
    dens = rng.random((5, 301))
    rep = oracle_cde_loss(dens, dens, grid)
    assert rep.loss == 0.0 and rep.std_error == 0.0


def test_oracle_loss_equals_tail_coefficient_mass():
    # truth is a finite expansion; truncating it leaves exactly the
    # squared mass of the dropped coefficients (Parseval)
    beta = np.array([1.0, 0.42, -0.27, 0.15, -0.08, 0.05, 0.02])
    grid = np.linspace(0.0, 1.0, 2001)
    phi = basis_matrix("cosine", grid, len(beta) - 1)
    truth = np.tile(phi @ beta, (4, 1))
    for i_cut in (0, 2, 4):
        est = np.tile(phi[:, : i_cut + 1] @ beta[: i_cut + 1], (4, 1))
        rep = oracle_cde_loss(truth, est, grid)
        tail = float((beta[i_cut + 1 :] ** 2).sum())
        assert rep.loss == pytest.approx(tail, abs=1e-6)


def test_empirical_loss_converges_at_root_n_rate():
    # fhat = 1 + c*phi_1 scored on uniform draws: the true loss is c^2 - 1
    # and the empirical version should approach it like n^(-1/2)
    c = 0.7
    true_loss = c * c - 1.0
    rng = np.random.default_rng(7)
    sizes = np.array([100, 1000, 10000])
    errs = []
    for n in sizes:
        reps = []
        for _ in range(20):
            z = rng.random(n)
            b_hat = np.tile([1.0, c], (n, 1))
            rep = cde_loss_from_coeffs(b_hat, z, 1)
            reps.append(abs(rep.loss - true_loss))
        errs.append(np.mean(reps))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert -0.75 < slope < -0.25
    assert errs[0] > errs[2]


def test_loss_input_validation():
    b_hat = np.ones((4, 3))
    z = np.full(4, 0.5)
    with pytest.raises(ValueError):
        cde_loss_from_coeffs(b_hat, z, 3)
    with pytest.raises(ValueError):
        cde_loss_from_coeffs(b_hat, z[:2], 1)
    with pytest.raises(ValueError):
        cde_loss_grid(np.linspace(0, 1, 11), np.ones((2, 10)), np.zeros(2))
    with pytest.raises(ValueError):
        oracle_cde_loss(np.ones((2, 5)), np.ones((3, 5)), np.linspace(0, 1, 5))
