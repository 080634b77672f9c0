"""Simulation scenarios and their exact conditional densities."""

import numpy as np
import pytest
from scipy import integrate, stats

from flexts.errors import DataError
from flexts.scenarios import (
    AR_COEFFS,
    ARMA_COEFFS,
    JUMP_PROB,
    SCENARIO_NAMES,
    T_DOF,
    ScenarioSpec,
    _innovation_pdf,
    density_rows,
    generate,
    simulate,
    true_density,
)


def test_same_spec_same_path():
    for name in SCENARIO_NAMES:
        a = simulate(ScenarioSpec(name=name, n=300, seed=42))
        b = simulate(ScenarioSpec(name=name, n=300, seed=42))
        np.testing.assert_array_equal(a.y, b.y)
        c = simulate(ScenarioSpec(name=name, n=300, seed=43))
        assert not np.array_equal(a.y, c.y)


def test_output_length_and_finiteness():
    for name in SCENARIO_NAMES:
        draw = simulate(ScenarioSpec(name=name, n=250, seed=1))
        assert draw.y.shape == (250,)
        assert np.all(np.isfinite(draw.y))


def test_jump_indicator_only_for_jump_scenarios():
    assert simulate(ScenarioSpec(name="ar", n=200, seed=0)).jumps is None
    draw = simulate(ScenarioSpec(name="arma_jump", n=5000, seed=0))
    assert draw.jumps.shape == (5000,)
    assert set(np.unique(draw.jumps)) <= {0.0, 1.0}
    assert np.mean(draw.jumps) == pytest.approx(JUMP_PROB, abs=0.01)


def test_ar_variance_matches_yule_walker():
    # stationary autocovariances solve a linear system in (g0, g1, g2, g3)
    a = np.array(AR_COEFFS)
    A = np.zeros((4, 4))
    b = np.zeros(4)
    A[0] = [1.0, -a[0], -a[1], -a[2]]
    b[0] = 1.0  # innovation variance
    for k in (1, 2, 3):
        row = np.zeros(4)
        row[k] = 1.0
        for i, ai in enumerate(a, start=1):
            row[abs(k - i)] -= ai
        A[k] = row
    g = np.linalg.solve(A, b)
    y = generate("ar", n=20000, seed=11)
    assert np.var(y) == pytest.approx(g[0], rel=0.2)
    # lag-1 autocorrelation for good measure
    emp_rho1 = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert emp_rho1 == pytest.approx(g[1] / g[0], abs=0.05)


def test_nonlinear_variance_regimes():
    draw = simulate(ScenarioSpec(name="nonlinear_variance", n=20000, seed=5))
    y = draw.y
    quiet = np.abs(y[:-3]) > 0.5
    sd_quiet = np.std(y[3:][quiet])
    sd_loud = np.std(y[3:][~quiet])
    assert sd_quiet == pytest.approx(0.1, rel=0.1)
    assert sd_loud == pytest.approx(1.0, rel=0.1)


def test_nonlinear_mean_response_range():
    y = generate("nonlinear_mean", n=20000, seed=6)
    lagged, response = y[:-3], y[3:]
    resid = response - np.sin(np.pi * lagged) ** 2
    assert np.mean(resid) == pytest.approx(0.0, abs=0.02)
    assert np.std(resid) == pytest.approx(0.5, rel=0.05)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(name="jump_diffusion", n=200, seed=0)
    with pytest.raises(ValueError):
        ScenarioSpec(name="ar", n=99, seed=0)
    with pytest.raises(ValueError):
        ScenarioSpec(name="ar", n=200, seed=0, burn_in=50)
    with pytest.raises(ValueError):
        ScenarioSpec(name="nonlinear_mean", n=200, seed=0, sigma_nm=0.0)


def test_true_density_ar_at_origin():
    dens = true_density("ar", [0.0, 0.0, 0.0], np.array([0.0]))
    assert dens[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)


def test_true_density_nonlinear_variance_point():
    dens = true_density("nonlinear_variance", [0.0, 0.0, 1.0], np.array([0.0]))
    assert dens[0] == pytest.approx(3.98942, abs=1e-5)
    wide = true_density("nonlinear_variance", [0.0, 0.0, 0.2], np.array([0.0]))
    assert wide[0] == pytest.approx(stats.norm.pdf(0.0, scale=1.0), rel=1e-12)


def test_true_density_arma_jump_is_two_component_mixture():
    u = [0.1, -0.2, 0.05]
    a1, a2, a3 = ARMA_COEFFS
    base = a1 * u[0] + a2 * u[1] + a3 * u[2] + 0.01
    grid = np.linspace(base - 1.0, base + 1.0, 9)
    dens = true_density("arma_jump", u, grid)
    expected = 0.95 * stats.norm.pdf(grid, base, 0.05) + 0.05 * stats.norm.pdf(
        grid, base - 0.3, 0.10
    )
    np.testing.assert_allclose(dens, expected, rtol=1e-12)
    dens_t = true_density("arma_jump_t", u, grid)
    expected_t = 0.95 * stats.t.pdf(grid, 3, base, 0.05) + 0.05 * stats.t.pdf(
        grid, 3, base - 0.3, 0.10
    )
    np.testing.assert_allclose(dens_t, expected_t, rtol=1e-12)


def test_t_innovation_density_matches_scipy():
    rng = np.random.default_rng(4)
    for loc, scale in [(0.0, 1.0), (0.3, 0.05), (-1.2, 0.1), (5.0, 3.0)]:
        x = loc + scale * np.concatenate([np.linspace(-1e3, 1e3, 2001),
                                          rng.standard_t(3, size=500)])
        np.testing.assert_allclose(_innovation_pdf("arma_jump_t", x, loc, scale),
                                   stats.t.pdf(x, T_DOF, loc=loc, scale=scale),
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_true_density_integrates_to_one(name):
    rng = np.random.default_rng(8)
    for _ in range(3):
        u = rng.normal(scale=0.8, size=3)
        mass, _ = integrate.quad(
            lambda y: float(true_density(name, u, np.array([y]))[0]),
            -np.inf,
            np.inf,
            limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)


def test_true_density_ignores_extra_lags():
    grid = np.linspace(-2, 2, 41)
    short = true_density("ar", [0.3, -0.1, 0.2], grid)
    long = true_density("ar", [0.3, -0.1, 0.2, 9.9, -7.7], grid)
    np.testing.assert_array_equal(short, long)


def test_true_density_needs_three_lags():
    with pytest.raises(DataError):
        true_density("ar", [0.3, -0.1], np.linspace(-1, 1, 5))
    with pytest.raises(ValueError):
        true_density("garch", [0.0, 0.0, 0.0], np.linspace(-1, 1, 5))


@pytest.mark.parametrize("sigma_nm", [0.0, -0.5, float("nan"), float("inf")])
def test_spec_and_oracle_share_the_sigma_nm_rule(sigma_nm):
    with pytest.raises(ValueError, match="sigma_nm must be positive and finite"):
        ScenarioSpec(name="nonlinear_mean", n=200, seed=0, sigma_nm=sigma_nm)
    with pytest.raises(ValueError, match="sigma_nm must be positive and finite"):
        density_rows("nonlinear_mean", np.zeros((2, 3)), np.linspace(-1, 1, 5),
                     sigma_nm=sigma_nm)


def test_density_rows_stacks_per_row():
    rng = np.random.default_rng(9)
    u_rows = rng.normal(size=(6, 3))
    grid = np.linspace(-3, 3, 101)
    rows = density_rows("nonlinear_mean", u_rows, grid)
    assert rows.shape == (6, 101)
    for r in range(6):
        np.testing.assert_array_equal(rows[r], true_density("nonlinear_mean",
                                                            u_rows[r], grid))
    with pytest.raises(ValueError):
        density_rows("ar", u_rows[0], grid)


@pytest.mark.parametrize(
    "name", ["ar", "nonlinear_mean", "nonlinear_variance", "arma_jump"]
)
def test_generator_matches_true_density_in_l1(name):
    # conditional histogram of simulated responses, for lag states close
    # to a reference state, against the exact conditional density
    draw = simulate(ScenarioSpec(name=name, n=50000, seed=10))
    y = draw.y
    lags = np.column_stack([y[2:-1], y[1:-2], y[:-3]])  # (y_{t-1}, y_{t-2}, y_{t-3})
    resp = y[3:]

    if name == "nonlinear_variance":
        pick = np.flatnonzero(np.abs(lags[:, 2]) > 0.5)[:6000]
    else:
        pick = np.flatnonzero(np.all(np.abs(lags) < 0.6, axis=1))[:6000]
    sample = resp[pick]
    assert sample.size > 1500

    lo, hi = np.quantile(sample, [0.001, 0.999])
    edges = np.linspace(lo, hi, 26)
    counts, _ = np.histogram(sample, edges)
    p_emp = counts / sample.size
    centers = 0.5 * (edges[:-1] + edges[1:])
    # given the lag states, responses are independent draws from their own
    # conditional densities, so the exact bin law is the state mixture
    mix = density_rows(name, lags[pick], centers).mean(axis=0)
    p_true = mix * np.diff(edges)
    l1 = float(np.abs(p_emp - p_true).sum())
    assert l1 <= 0.1
