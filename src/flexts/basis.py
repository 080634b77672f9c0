"""Orthonormal bases on [0, 1] and affine response scaling.

Two function systems are provided, both orthonormal in L2([0, 1]):

* ``cosine``:  phi_0(z) = 1,  phi_i(z) = sqrt(2) cos(pi i z)
* ``fourier``: phi_0(z) = 1,  phi_{2j-1}(z) = sqrt(2) sin(2 pi j z),
               phi_{2j}(z) = sqrt(2) cos(2 pi j z)

Responses are mapped onto [0, 1] by an affine ``Scaler`` fit on training
data with a small padding margin, so that densities estimated in basis
coordinates transform back with a constant Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from flexts.errors import DataError

SQRT2 = float(np.sqrt(2.0))

BASIS_KINDS = ("cosine", "fourier")

# Ceilings on the response grid's points and the basis cutoff i_max, so that
# no fit or model file asks for unbounded memory: a model's grid and its basis
# there take at most MAX_GRID_SIZE * (MAX_I_MAX + 1) floats (400 MB), and an
# nw or knn model's basis rows n_train * (MAX_I_MAX + 1). Both are more than
# ten times the largest values the tests and benchmarks use (2001, 60).
MAX_GRID_SIZE = 50_001
MAX_I_MAX = 1_000


def _check_kind(kind):
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")


def basis_function(kind, i, z):
    """Evaluate the i-th basis function at points z in [0, 1].

    Parameters
    ----------
    kind : str
        "cosine" or "fourier".
    i : int
        Basis index, starting at 0 (the constant function).
    z : array_like
        Evaluation points in [0, 1]; values outside are a domain error.

    Returns
    -------
    ndarray of the same shape as ``z``.
    """
    _check_kind(kind)
    if i < 0:
        raise ValueError(f"basis index must be nonnegative, got {i}")
    z = np.asarray(z, dtype=float)
    if z.size and (z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("basis evaluation points must lie in [0, 1]")
    if i == 0:
        return np.ones_like(z)
    if kind == "cosine":
        return SQRT2 * np.cos(np.pi * i * z)
    # fourier: odd indices are sines, even indices cosines, frequency j
    j = (i + 1) // 2
    if i % 2 == 1:
        return SQRT2 * np.sin(2.0 * np.pi * j * z)
    return SQRT2 * np.cos(2.0 * np.pi * j * z)


def basis_matrix(kind, z, i_max):
    """Matrix Phi with Phi[t, i] = phi_i(z[t]) for i = 0..i_max.

    ``z`` must already live on [0, 1]; values outside raise ValueError
    because the basis expansion is undefined there. ``i_max`` is at most
    MAX_I_MAX, checked before the matrix is allocated.
    """
    _check_kind(kind)
    if not 0 <= i_max <= MAX_I_MAX:
        raise ValueError(f"i_max must be in [0, {MAX_I_MAX}], got {i_max}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim != 1:
        raise ValueError(f"z must be one-dimensional, got shape {z.shape}")
    if z.size and (z.min() < 0.0 or z.max() > 1.0):
        raise ValueError("basis evaluation points must lie in [0, 1]")
    n = z.size
    phi = np.empty((n, i_max + 1))
    phi[:, 0] = 1.0
    if i_max == 0:
        return phi
    if kind == "cosine":
        args = np.pi * np.outer(z, np.arange(1, i_max + 1))
        phi[:, 1:] = SQRT2 * np.cos(args)
        return phi
    n_pairs = (i_max + 1) // 2
    args = 2.0 * np.pi * np.outer(z, np.arange(1, n_pairs + 1))
    sin_block = SQRT2 * np.sin(args)
    cos_block = SQRT2 * np.cos(args)
    phi[:, 1::2] = sin_block[:, : (i_max + 1) // 2]
    phi[:, 2::2] = cos_block[:, : i_max // 2]
    return phi


@dataclass(frozen=True)
class Scaler:
    """Affine map from response units onto [0, 1].

    ``lo`` and ``hi`` are the padded endpoints of the training range. The
    transform is z = (y - lo) / (hi - lo); densities estimated in z units
    convert back to response units by dividing by ``width``.
    """

    lo: float
    hi: float
    pad: float

    def __post_init__(self):
        check_range(self.lo, self.hi)

    @property
    def width(self):
        return self.hi - self.lo

    def transform(self, y):
        """Map response values to scale units (may exit [0, 1] for new data)."""
        y = np.asarray(y, dtype=float)
        return (y - self.lo) / self.width

    def unscale(self, z):
        """Map scale units back to response units."""
        z = np.asarray(z, dtype=float)
        return self.lo + z * self.width


def check_range(lo, hi):
    """The response range rule of the scaler and every grid: finite, hi > lo,
    and a width ``check_scale`` accepts."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"range endpoints must be finite, got [{lo}, {hi}]")
    if hi <= lo:
        raise ValueError(f"range requires hi > lo, got [{lo}, {hi}]")
    check_scale(lo, hi)


def check_scale(lo, hi):
    """The response scale rule: the width hi - lo, squared and reciprocal
    squared, stays a finite nonzero float, as densities over the range and
    their squared losses need. Every fit checks it on its responses' range
    before any other work, and every model's range at load."""
    width = float(hi) - float(lo)
    square = width * width
    if not (0.0 < square < np.inf and 0.0 < 1.0 / square < np.inf):
        raise DataError(f"response range [{lo}, {hi}] has width {width}, whose "
                        "square or reciprocal square is not a finite nonzero "
                        "float; rescale the series")


def check_grid_size(grid_size):
    """The response grid rule of every method's fit: odd, 101 to MAX_GRID_SIZE points."""
    if not 101 <= grid_size <= MAX_GRID_SIZE or grid_size % 2 == 0:
        raise ValueError(f"grid_size must be odd and >= 101, at most {MAX_GRID_SIZE}, "
                         f"got {grid_size}")


def check_pad(pad):
    """The scaler's padding rule: nonnegative and finite (NaN is not)."""
    if not 0 <= pad < np.inf:
        raise ValueError(f"pad must be nonnegative and finite, got {pad}")


def fit_scaler(y_train, pad=0.05):
    """Fit the affine response scaler on training responses.

    The observed range is widened by ``pad`` times its length on each
    side so that interior training points stay away from the basis
    boundary. A constant training response has no usable range and is
    rejected.
    """
    y_train = np.asarray(y_train, dtype=float)
    if y_train.size == 0:
        raise ValueError("cannot fit scaler on empty training responses")
    if not np.all(np.isfinite(y_train)):
        raise ValueError("training responses contain non-finite values")
    check_pad(pad)
    y_min = float(y_train.min())
    y_max = float(y_train.max())
    rng = y_max - y_min
    if rng == 0.0:
        raise DataError("training responses are constant; scaler range is empty")
    check_scale(y_min, y_max)
    return Scaler(lo=y_min - pad * rng, hi=y_max + pad * rng, pad=pad)
