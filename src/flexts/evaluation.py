"""Density loss estimators and forecast metrics.

The central quantity is the quadratic density loss

    L(fhat) = E[ integral fhat(y|U)^2 dy ] - 2 E[ fhat(Y|U) ],

which differs from the integrated squared error against the truth by a
constant, so it ranks estimators without knowing the true density. Two
empirical forms are provided: a coefficient form for orthonormal-basis
estimators (the integral collapses to a sum of squared coefficients)
and a grid form for any estimator that can tabulate densities. Both
report a standard error from the spread of per-row contributions.
"""

from dataclasses import dataclass

import numpy as np

from flexts.basis import basis_matrix


@dataclass
class CdeLossReport:
    """An empirical density loss with its Monte Carlo standard error."""

    loss: float
    std_error: float
    n_eval: int
    n_outside: int = 0


def _summarize(contrib, n_outside=0):
    n = contrib.shape[0]
    loss = float(contrib.mean())
    se = 0.0 if n < 2 else float(contrib.std(ddof=1) / np.sqrt(n))
    return CdeLossReport(loss=loss, std_error=se, n_eval=n, n_outside=n_outside)


def cde_loss_from_coeffs(b_hat, eval_z, i_cut, kind="cosine"):
    """Coefficient-form loss for a basis expansion truncated at i_cut.

    Rows of ``b_hat`` hold predicted coefficients for each evaluation
    point; ``eval_z`` holds the realized responses in scale units. The
    estimate is mean(sum_{i<=I} b_i^2) - 2 mean(fhat(z_t)), where rows
    whose response falls outside [0, 1] contribute zero to the second
    term (the expansion has no mass there) and are counted.
    """
    b_hat = np.asarray(b_hat, dtype=float)
    eval_z = np.asarray(eval_z, dtype=float)
    if b_hat.ndim != 2:
        raise ValueError(f"b_hat must be 2-d, got shape {b_hat.shape}")
    if eval_z.shape[0] != b_hat.shape[0]:
        raise ValueError(
            f"row mismatch: {b_hat.shape[0]} coefficient rows vs "
            f"{eval_z.shape[0]} responses"
        )
    if not 0 <= i_cut < b_hat.shape[1]:
        raise ValueError(
            f"i_cut must be in [0, {b_hat.shape[1] - 1}], got {i_cut}"
        )
    coeffs = b_hat[:, : i_cut + 1]
    sq_term = (coeffs * coeffs).sum(axis=1)
    inside = (eval_z >= 0.0) & (eval_z <= 1.0)
    cross = np.zeros(eval_z.shape[0])
    if inside.any():
        phi = basis_matrix(kind, eval_z[inside], i_cut)
        cross[inside] = (coeffs[inside] * phi).sum(axis=1)
    contrib = sq_term - 2.0 * cross
    return _summarize(contrib, n_outside=int((~inside).sum()))


def cde_loss_curve(b_hat, eval_z, kind="cosine"):
    """Coefficient-form loss at every cutoff I = 0..i_max at once.

    ``b_hat`` is one (n, i_max+1) prediction or a sequence of them, all
    for the responses ``eval_z``, whose basis is tabulated once. Returns
    (losses, std_errors): a curve over I for one prediction, one row per
    prediction for a sequence. Running sums over the coefficient index
    make a curve as cheap as its largest cutoff; entry I matches
    cde_loss_from_coeffs at I.
    """
    single = getattr(b_hat, "ndim", None) == 2
    preds = [np.asarray(b, dtype=float) for b in ([b_hat] if single else b_hat)]
    eval_z = np.asarray(eval_z, dtype=float)
    shape = preds[0].shape if preds else ()
    alike = all(b.shape == shape for b in preds)
    if len(shape) != 2 or shape[0] != eval_z.shape[0] or not alike:
        raise ValueError("b_hat rows must match eval_z length, alike for every b_hat")
    n, n_coef = shape
    inside = (eval_z >= 0.0) & (eval_z <= 1.0)
    phi = basis_matrix(kind, eval_z[inside], n_coef - 1)
    losses, ses = np.empty((len(preds), n_coef)), np.zeros((len(preds), n_coef))
    cross_cum = np.zeros((n, n_coef))
    # one prediction at a time: a stacked (k, n, I+1) pass is slower (cache misses)
    for c, b in enumerate(preds):
        sq_cum = np.cumsum(b * b, axis=1)
        cross_cum[inside] = np.cumsum(b[inside] * phi, axis=1)
        contrib = sq_cum - 2.0 * cross_cum
        losses[c] = contrib.mean(axis=0)
        if n >= 2:
            ses[c] = contrib.std(axis=0, ddof=1) / np.sqrt(n)
    return (losses[0], ses[0]) if single else (losses, ses)


def interp_rows(grid, densities, points):
    """Linear interpolation of each density row at its own query point.

    ``grid`` must be uniform and increasing. Points outside the grid get
    density zero; the mask of such rows is returned alongside.
    """
    grid = np.asarray(grid, dtype=float)
    densities = np.asarray(densities, dtype=float)
    points = np.asarray(points, dtype=float)
    lo, hi = grid[0], grid[-1]
    step = (hi - lo) / (grid.size - 1)
    inside = (points >= lo) & (points <= hi)
    pos = np.clip((points - lo) / step, 0.0, grid.size - 1.0)
    left = np.minimum(pos.astype(int), grid.size - 2)
    frac = pos - left
    rows = np.arange(densities.shape[0])
    vals = (1.0 - frac) * densities[rows, left] + frac * densities[rows, left + 1]
    vals[~inside] = 0.0
    return vals, inside


def cde_loss_grid(grid_y, densities, eval_y):
    """Grid-form loss for tabulated conditional densities.

    ``densities[t]`` is the estimated density for row t on the common
    ``grid_y``; ``eval_y[t]`` is the realized response. The integral
    term uses the trapezoid rule on the grid and the density at the
    realized response is linearly interpolated; responses outside the
    grid contribute zero density and are counted.
    """
    grid_y = np.asarray(grid_y, dtype=float)
    densities = np.asarray(densities, dtype=float)
    eval_y = np.asarray(eval_y, dtype=float)
    if grid_y.ndim != 1 or grid_y.size < 2:
        raise ValueError("grid_y must be 1-d with at least two points")
    if densities.ndim != 2 or densities.shape[1] != grid_y.size:
        raise ValueError(
            f"densities must be (n_rows, {grid_y.size}), got {densities.shape}"
        )
    if eval_y.shape[0] != densities.shape[0]:
        raise ValueError("eval_y length must match density rows")
    sq_term = np.trapezoid(densities * densities, grid_y, axis=1)
    cross, inside = interp_rows(grid_y, densities, eval_y)
    contrib = sq_term - 2.0 * cross
    return _summarize(contrib, n_outside=int((~inside).sum()))


def pinball_loss(quantiles, eval_y, tau):
    """Mean pinball (quantile) loss of predicted tau-quantiles.

    loss_t = tau*(y_t - q_t) if y_t >= q_t else (1-tau)*(q_t - y_t).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be strictly inside (0, 1), got {tau}")
    quantiles = np.asarray(quantiles, dtype=float)
    eval_y = np.asarray(eval_y, dtype=float)
    if quantiles.shape != eval_y.shape:
        raise ValueError(
            f"shape mismatch: quantiles {quantiles.shape} vs responses {eval_y.shape}"
        )
    diff = eval_y - quantiles
    return float(np.mean(np.where(diff >= 0.0, tau * diff, (tau - 1.0) * diff)))


def oracle_cde_loss(true_density_rows, est_density_rows, grid_y):
    """Mean integrated squared error against a known conditional density.

    Both arguments tabulate densities on ``grid_y``, one row per
    evaluation point; the integral is the trapezoid rule. Available only
    in simulations where the truth is known.
    """
    truth = np.asarray(true_density_rows, dtype=float)
    est = np.asarray(est_density_rows, dtype=float)
    grid_y = np.asarray(grid_y, dtype=float)
    if truth.shape != est.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {est.shape}")
    if truth.ndim != 2 or truth.shape[1] != grid_y.size:
        raise ValueError("density rows must match the grid length")
    diff = est - truth
    contrib = np.trapezoid(diff * diff, grid_y, axis=1)
    return _summarize(contrib)
