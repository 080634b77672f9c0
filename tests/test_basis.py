"""Basis evaluation, orthonormality, and response scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexts.basis import (
    MAX_I_MAX,
    SQRT2,
    Scaler,
    basis_function,
    basis_matrix,
    fit_scaler,
)
from flexts.errors import DataError


def trapezoid_gram(kind, i_max, n_grid=4001):
    grid = np.linspace(0.0, 1.0, n_grid)
    phi = basis_matrix(kind, grid, i_max)
    w = np.full(n_grid, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return phi.T @ (phi * w[:, None])


def test_cosine_point_values():
    assert basis_function("cosine", 0, 0.7313) == 1.0
    assert basis_function("cosine", 1, 0.0) == pytest.approx(SQRT2, abs=1e-12)
    assert basis_function("cosine", 2, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_fourier_point_values():
    assert basis_function("fourier", 0, 0.31) == 1.0
    assert basis_function("fourier", 1, 0.25) == pytest.approx(SQRT2, abs=1e-12)
    assert basis_function("fourier", 2, 0.5) == pytest.approx(-SQRT2, abs=1e-12)


def test_basis_bounded_by_sqrt2():
    z = np.linspace(0, 1, 501)
    for kind in ("cosine", "fourier"):
        for i in range(12):
            assert np.max(np.abs(basis_function(kind, i, z))) <= SQRT2 + 1e-12


def test_basis_domain_errors():
    with pytest.raises(ValueError):
        basis_function("cosine", 1, 1.2)
    with pytest.raises(ValueError):
        basis_function("cosine", 1, -0.1)
    with pytest.raises(ValueError):
        basis_function("cosine", -1, 0.5)
    with pytest.raises(ValueError):
        basis_function("hermite", 1, 0.5)
    with pytest.raises(ValueError):
        basis_matrix("cosine", [0.5, 1.5], 3)
    assert basis_matrix("cosine", [0.5], MAX_I_MAX).shape == (1, MAX_I_MAX + 1)
    with pytest.raises(ValueError, match=f"i_max must be in \\[0, {MAX_I_MAX}\\]"):
        basis_matrix("cosine", [0.5], MAX_I_MAX + 1)


@pytest.mark.parametrize("kind", ["cosine", "fourier"])
def test_orthonormality_on_4001_grid(kind):
    gram = trapezoid_gram(kind, 30)
    err = np.max(np.abs(gram - np.eye(31)))
    assert err < 1e-6


@pytest.mark.parametrize("kind", ["cosine", "fourier"])
def test_basis_matrix_matches_pointwise_eval(kind):
    rng = np.random.default_rng(11)
    z = rng.random(40)
    phi = basis_matrix(kind, z, 9)
    for i in range(10):
        np.testing.assert_allclose(phi[:, i], basis_function(kind, i, z), atol=1e-14)


def test_fit_scaler_no_pad():
    s = fit_scaler([0.0, 2.0], pad=0.0)
    assert (s.lo, s.hi) == (0.0, 2.0)
    assert s.transform(1.0) == 0.5


def test_fit_scaler_default_pad():
    s = fit_scaler([0.0, 2.0], pad=0.05)
    assert s.lo == pytest.approx(-0.1, abs=1e-15)
    assert s.hi == pytest.approx(2.1, abs=1e-15)


def test_fit_scaler_constant_series_errors():
    with pytest.raises(DataError):
        fit_scaler([5.0, 5.0, 5.0], pad=0.05)
    with pytest.raises(DataError):
        fit_scaler([5.0, 5.0, 5.0], pad=0.0)


def test_fit_scaler_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fit_scaler([], pad=0.05)
    with pytest.raises(ValueError):
        fit_scaler([0.0, np.nan], pad=0.05)
    with pytest.raises(ValueError):
        fit_scaler([0.0, 1.0], pad=-0.1)
    with pytest.raises(ValueError, match="pad must be nonnegative"):
        fit_scaler([0.0, 1.0], pad=np.nan)
    with pytest.raises(ValueError):
        Scaler(lo=1.0, hi=1.0, pad=0.0)


def test_training_range_maps_inside_unit_interval():
    rng = np.random.default_rng(5)
    y = rng.normal(3.0, 2.0, 400)
    pad = 0.05
    s = fit_scaler(y, pad=pad)
    z = s.transform(y)
    edge = pad / (1 + 2 * pad)
    assert z.min() == pytest.approx(edge, abs=1e-12)
    assert z.max() == pytest.approx(1 - edge, abs=1e-12)
    assert 0.0 <= z.min() and z.max() <= 1.0


def test_scaling_round_trip():
    rng = np.random.default_rng(7)
    y = rng.normal(-40.0, 13.0, 300)
    s = fit_scaler(y, pad=0.05)
    back = s.unscale(s.transform(y))
    np.testing.assert_allclose(back, y, rtol=1e-12)


def test_density_jacobian_preserves_mass():
    # g(z) = 2z is a density on [0, 1]; mapping through the scaler with
    # the 1/width Jacobian must keep unit mass in response units
    s = Scaler(lo=-3.0, hi=9.0, pad=0.0)
    grid_y = np.linspace(s.lo, s.hi, 2001)
    dens_y = 2.0 * s.transform(grid_y) / s.width
    assert np.trapezoid(dens_y, grid_y) == pytest.approx(1.0, abs=1e-8)


UNIT_POINTS = arrays(np.float64, st.integers(0, 300),
                     elements=st.floats(0.0, 1.0, allow_subnormal=True))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["cosine", "fourier"]), a=UNIT_POINTS, b=UNIT_POINTS,
       i_max=st.integers(0, 40))
def test_basis_rows_do_not_depend_on_their_neighbors(kind, a, b, i_max):
    # a model file rebuilds refit_final's stacked basis rows from the
    # concatenated responses, so the two must agree byte for byte
    whole = basis_matrix(kind, np.concatenate([a, b]), i_max)
    stacked = np.vstack([basis_matrix(kind, a, i_max), basis_matrix(kind, b, i_max)])
    assert whole.tobytes() == stacked.tobytes()
