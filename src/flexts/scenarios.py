"""Simulation scenarios with known conditional densities.

Each scenario is a location-scale law, Y_t = mean + scale * e_t, whose mean
and scale ``_location_scale`` gives from the ORDER = 3 most recent values
u = (y_{t-1}, y_{t-2}, y_{t-3}) and, in the jump scenarios, a jump indicator
Z_t. ``simulate`` runs that one law from zero initial lags, discarding a
burn-in, and ``true_density`` reads it for the exact conditional density of
Y_t given u, which makes oracle loss computations possible in benchmarks.

Scenarios
---------
ar
    Y_t = 0.2 Y_{t-1} + 0.3 Y_{t-2} + 0.35 Y_{t-3} + e_t, e ~ N(0,1).
arma_jump
    Y_t = 0.1 Y_{t-1} + 0.4 Y_{t-2} + 0.4 Y_{t-3} + 0.01 - 0.3 Z_t
          + 0.05 (1 + Z_t) e_t with Z_t ~ Bernoulli(0.05), e ~ N(0,1);
    a two-component Gaussian mixture conditional.
arma_jump_t
    Same recursion with e_t ~ t(3): a scaled-t mixture conditional.
nonlinear_mean
    Y_t = sin^2(pi Y_{t-3}) + sigma_nm e_t, e ~ N(0,1).
nonlinear_variance
    Y_t = sigma_t e_t with sigma_t = 0.1 if |Y_{t-3}| > 0.5 else 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from flexts.errors import DataError

SCENARIO_NAMES = (
    "ar",
    "arma_jump",
    "arma_jump_t",
    "nonlinear_mean",
    "nonlinear_variance",
)

# lags the conditional law reads: u = (y_{t-1}, y_{t-2}, y_{t-3})
ORDER = 3

JUMP_SCENARIOS = ("arma_jump", "arma_jump_t")
JUMP_PROB = 0.05
T_DOF = 3
# the t(T_DOF) density's constant, Gamma((v + 1) / 2) / (sqrt(v pi) Gamma(v / 2))
T_NORM = (math.exp(math.lgamma(0.5 * (T_DOF + 1)) - math.lgamma(0.5 * T_DOF))
          / math.sqrt(T_DOF * math.pi))

AR_COEFFS = (0.2, 0.3, 0.35)
ARMA_COEFFS = (0.1, 0.4, 0.4)


def check_sigma_nm(sigma_nm):
    """The rule for nonlinear_mean's noise scale: positive and finite (not NaN)."""
    if not 0.0 < sigma_nm < math.inf:
        raise ValueError(f"sigma_nm must be positive and finite, got {sigma_nm}")


@dataclass(frozen=True)
class ScenarioSpec:
    """What to simulate: scenario name, length, seed, and knobs."""

    name: str
    n: int
    seed: int
    burn_in: int = 200
    sigma_nm: float = 0.5

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.name!r}; expected one of {SCENARIO_NAMES}"
            )
        if self.n < 100:
            raise ValueError(f"scenario length must be >= 100, got {self.n}")
        if self.burn_in < 100:
            raise ValueError(f"burn-in must be >= 100, got {self.burn_in}")
        check_sigma_nm(self.sigma_nm)
        try:  # the seeds simulate's default_rng takes
            np.random.SeedSequence(self.seed)
        except (TypeError, ValueError):
            raise ValueError(
                f"seed must be a nonnegative integer, got {self.seed!r}") from None


@dataclass
class ScenarioDraw:
    """A simulated path; ``jumps`` is set for the jump scenarios only."""

    y: np.ndarray
    jumps: np.ndarray | None = None


def _location_scale(name, y1, y2, y3, z, sigma_nm):
    """Mean and scale of Y_t given its three lags and jump indicator z."""
    if name == "ar":
        a1, a2, a3 = AR_COEFFS
        return a1 * y1 + a2 * y2 + a3 * y3, 1.0
    if name in JUMP_SCENARIOS:
        a1, a2, a3 = ARMA_COEFFS
        return a1 * y1 + a2 * y2 + a3 * y3 + 0.01 - 0.3 * z, 0.05 * (1.0 + z)
    if name == "nonlinear_mean":
        return np.sin(np.pi * y3) ** 2, sigma_nm
    return 0.0, 0.1 if abs(y3) > 0.5 else 1.0


def _innovations(name, rng, size):
    """The innovation law: N(0, 1), or t(T_DOF) for arma_jump_t."""
    if name == "arma_jump_t":
        return rng.standard_t(T_DOF, size=size)
    return rng.standard_normal(size)


def _innovation_pdf(name, x, loc, scale):
    if name == "arma_jump_t":
        z = (x - loc) / scale
        return T_NORM / scale * (1.0 + z * z / T_DOF) ** (-0.5 * (T_DOF + 1))
    z = (x - loc) / scale
    return np.exp(-0.5 * z * z) / (scale * np.sqrt(2.0 * np.pi))


def simulate(spec):
    """Simulate a scenario path of length spec.n after burn-in.

    All randomness comes from ``numpy.random.default_rng(spec.seed)``
    with a fixed draw order (innovations first, then jump indicators),
    so a given spec always produces the same path.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.burn_in + spec.n
    eps = _innovations(spec.name, rng, total)
    jumps = None
    z = [0.0] * total
    if spec.name in JUMP_SCENARIOS:
        jumps = (rng.random(total) < JUMP_PROB).astype(float)
        z = jumps.tolist()
    y = [0.0] * ORDER
    for e, zt in zip(eps.tolist(), z):
        mean, scale = _location_scale(spec.name, y[-1], y[-2], y[-3], zt,
                                      spec.sigma_nm)
        y.append(mean + scale * e)
    return ScenarioDraw(
        y=np.array(y[ORDER + spec.burn_in:]),
        jumps=None if jumps is None else jumps[spec.burn_in:],
    )


def generate(name, n, seed, burn_in=200, sigma_nm=0.5):
    """Convenience wrapper returning just the simulated path."""
    return simulate(
        ScenarioSpec(name=name, n=n, seed=seed, burn_in=burn_in, sigma_nm=sigma_nm)
    ).y


def true_density(name, u, grid_y, sigma_nm=0.5):
    """Exact conditional density f(y | u) on a grid of y values.

    ``u`` holds the lagged covariates ordered (y_{t-1}, y_{t-2},
    y_{t-3}, ...); only the first ORDER entries are used and at least
    ORDER are required. Extra entries (longer lag embeddings) are
    ignored because every scenario is ORDER-th order Markov at most.
    """
    if name not in SCENARIO_NAMES:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}"
        )
    check_sigma_nm(sigma_nm)
    u = np.asarray(u, dtype=float).ravel()
    if u.size < ORDER:
        raise DataError(
            f"scenario {name!r} conditions on {ORDER} lags; got {u.size} covariates"
        )
    grid_y = np.asarray(grid_y, dtype=float)
    mean, scale = _location_scale(name, u[0], u[1], u[2], 0.0, sigma_nm)
    dens = _innovation_pdf(name, grid_y, mean, scale)
    if name in JUMP_SCENARIOS:  # a mixture over the jump indicator z
        mean, scale = _location_scale(name, u[0], u[1], u[2], 1.0, sigma_nm)
        jump = _innovation_pdf(name, grid_y, mean, scale)
        dens = (1.0 - JUMP_PROB) * dens + JUMP_PROB * jump
    return dens


def density_rows(name, u_rows, grid_y, sigma_nm=0.5):
    """Stack true_density over many covariate rows: (n_rows, len(grid))."""
    u_rows = np.asarray(u_rows, dtype=float)
    if u_rows.ndim != 2:
        raise ValueError(f"u_rows must be 2-d, got shape {u_rows.shape}")
    return true_rows(name, u_rows, grid_y, sigma_nm)


def true_rows(name, u_rows, grid_y, sigma_nm=0.5):
    """density_rows of a 2-d float array of rows, at least one, unchecked.

    ``estimator.score_rows``' slices call this on the row threads; the
    traced benchmark run wraps ``density_rows``, and its tracer is not
    thread-safe.
    """
    return np.vstack([true_density(name, row, grid_y, sigma_nm=sigma_nm)
                      for row in u_rows])
