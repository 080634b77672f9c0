"""Series-expansion conditional density estimation for time series.

The conditional density f(y_t | u_t) is expanded in an orthonormal
basis of the rescaled response; each coefficient beta_i(u) = E[phi_i(Z_t) | u]
is estimated by regressing phi_i(z_t) on the covariates u_t. The number
of expansion terms and the backend hyperparameter are chosen jointly by
minimizing the empirical density loss on a later-in-time validation
block. Predicted densities are post-processed (negative part clipped,
mass renormalized) before consumption.

Every fitted model, this one and the ``baselines``, tabulates through
``grid()``, ``row_state``, ``raw_rows`` (the method's density rows before
post-processing) and ``density_rows`` (a ``DensityBatch`` of them, post-
processed by ``renormalize_rows``); ``predict_density_batch``,
``predict_density`` and ``predict_quantiles`` are that call on the model's
grid, for any model whose state needs only u. ``score_rows`` scores raw
rows against held-out responses in slices on the row threads.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from flexts.basis import (
    BASIS_KINDS,
    MAX_I_MAX,
    Scaler,
    basis_matrix,
    check_grid_size,
    fit_scaler,
)
from flexts.errors import DataError, NumericError
from flexts.evaluation import (
    CdeLossReport,
    cde_loss_curve,
    cde_loss_from_coeffs,
    check_tabulated,
    grid_loss_terms,
    oracle_loss_terms,
    summarize,
)
from flexts.features import FeatureSpec, SplitSpec, temporal_split
# nw_predict_grid is unused here; perfbench/test_perfbench.py reads the binding
from flexts.regression import (
    BACKENDS,
    SLICE_ELEMS,
    check_queries,
    nw_predict_grid,
    set_prepared,
    split_rows,
)


@dataclass(frozen=True)
class FitConfig:
    """Estimator settings; hyper_grid=None means backend defaults.

    A fit selects (hyperparameter, I <= i_max) by one loss, the
    coefficient-form validation loss of the raw expansions, from a
    (candidates x cutoffs) table whose ties go to the smaller I, then the
    earlier candidate (see ``fit``). ``refit_final`` refits the winner on
    the train+validation rows.
    """

    basis: str = "cosine"
    i_max: int = 30
    backend: str = "nw"
    hyper_grid: tuple | None = None
    grid_size: int = 1001
    pad: float = 0.05
    refit_final: bool = False

    def __post_init__(self):
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not 1 <= self.i_max <= MAX_I_MAX:
            raise ValueError(f"i_max must be >= 1, at most {MAX_I_MAX}, got {self.i_max}")
        if self.hyper_grid is not None and len(self.hyper_grid) == 0:
            raise ValueError("hyper_grid is empty; pass None for the defaults")
        check_grid_size(self.grid_size)


@dataclass(frozen=True)
class CoefficientModel:
    """A fitted conditional density estimator.

    Built (by ``fit`` or a model-file load), the model checks that its
    backend maps ``len(feature_names)`` covariates to coefficients
    0..i_max, and that its feature spec, if any, builds that many
    covariates, then prepares its own
    response grid, read-only, and the basis functions 0..i_selected on it
    once; densities on any other grid tabulate the basis afresh. The
    model is frozen, so neither can go stale: ``dataclasses.replace``
    builds a new model with its own.
    """

    scaler: Scaler
    basis: str
    i_max: int
    i_selected: int
    grid_size: int
    backend_kind: str
    hyper: float
    backend: object
    val_losses: np.ndarray
    val_std_errors: np.ndarray
    candidate_hypers: list
    candidate_losses: list
    feature_names: list
    diagnostics: dict = field(default_factory=dict)
    # the scaled responses of the rows an nw or knn backend was built on; its
    # train_phi is their basis, which a model file leaves out and load rebuilds
    train_z: np.ndarray | None = None
    # how the design's rows were built and split; a hand-built design has
    # no feature spec
    features: FeatureSpec | None = None
    split: SplitSpec | None = None

    def __post_init__(self):
        check_grid_size(self.grid_size)  # before the grid is allocated
        # the backend predicts coefficients 0..i_max; the expansion is cut inside them
        if not 0 <= self.i_selected <= self.i_max:
            raise ValueError(f"i_selected={self.i_selected} is outside [0, {self.i_max}]")
        backend = self.backend
        widths = ((backend.train_u.shape[1], backend.train_phi.shape[1])
                  if hasattr(backend, "train_phi") else backend.coef.shape)
        if widths != (len(self.feature_names), self.i_max + 1):
            raise ValueError(
                f"the {self.backend_kind} backend maps {widths[0]} covariates to "
                f"{widths[1]} coefficients, not {len(self.feature_names)} "
                f"feature_names to i_max + 1 = {self.i_max + 1}")
        spec = self.features
        if spec is not None and spec.n_columns != len(self.feature_names):
            raise ValueError(f"the features {spec} build {spec.n_columns} covariates, "
                             f"not the {len(self.feature_names)} feature_names")
        grid = np.linspace(self.scaler.lo, self.scaler.hi, self.grid_size)
        grid.flags.writeable = False
        phi_grid = basis_matrix(self.basis, self.scaler.transform(grid), self.i_selected)
        phi_grid.flags.writeable = False
        set_prepared(self, _grid=grid, _phi_grid=phi_grid)

    def grid(self):
        """The fit-time response grid densities are tabulated on (read-only)."""
        return self._grid

    def row_state(self, u, series=None, rows=None):
        """The backend's predicted coefficients (all i_max+1) at covariate rows u."""
        u = check_queries(np.atleast_2d(u), len(self.feature_names))
        return self.backend.predict(u)

    def raw_rows(self, state, grid_y):
        """row_state's expansions on any response grid, cut at the selected I.

        On the model's own grid the basis is the one it prepared when built.
        """
        phi_grid = self._phi_grid
        if grid_y is not self._grid:
            phi_grid = basis_matrix(
                self.basis, self.scaler.transform(grid_y), self.i_selected
            )
        return (state.b_hat[:, : self.i_selected + 1] @ phi_grid.T) / self.scaler.width

    def density_rows(self, state, grid_y):
        """The DensityBatch of row_state's rows on any response grid."""
        return DensityBatch.from_raw(grid_y, self.raw_rows(state, grid_y))


@dataclass
class DensityBatch:
    """Post-processed densities on a shared response grid.

    ``raw_density`` is the method's density before clipping and
    renormalization; ``degenerate`` flags rows without mass, made uniform.
    """

    grid_y: np.ndarray
    density: np.ndarray
    raw_density: np.ndarray
    degenerate: np.ndarray

    @classmethod
    def from_raw(cls, grid_y, raw):
        """The batch of a method's raw density rows on grid_y (renormalize_rows)."""
        density, degenerate = renormalize_rows(raw, grid_y)
        return cls(grid_y, density, raw, degenerate)


@dataclass
class DensityEstimate:
    """A single post-processed conditional density."""

    grid_y: np.ndarray
    density: np.ndarray
    raw_density: np.ndarray
    degenerate: bool


def renormalize_rows(raw, grid_y):
    """Clip density rows at zero and scale each to unit trapezoid mass on grid_y.

    Every method's densities take this one post-processing step. Rows
    without a finite mass of at least the smallest normal float become
    uniform over the grid: a subnormal mass carries too few significant
    bits to normalize by. Returns (density, degenerate), the second
    flagging those rows.
    """
    density = np.maximum(raw, 0.0)
    mass = np.trapezoid(density, grid_y, axis=1)
    degenerate = ~(mass >= np.finfo(float).tiny) | ~np.isfinite(mass)
    density /= np.where(degenerate, 1.0, mass)[:, None]
    if degenerate.any():
        density[degenerate] = 1.0 / (grid_y[-1] - grid_y[0])
    return density, degenerate


def fit(design, split=SplitSpec(), config=FitConfig()):
    """Fit the estimator on a design matrix with a temporal split.

    Hyperparameter and cutoff are selected jointly from one table: row c
    holds candidate c's validation loss at every cutoff I = 0..i_max, and
    the smallest entry wins. The table is searched I-major, so ties
    prefer the smaller I, then the earlier candidate. The loss is the
    coefficient form on the raw expansions, so the table needs no
    response grid; ``val_losses`` and ``val_std_errors`` are the
    winner's row of it and of its standard errors.
    """
    tr, va, te = temporal_split(design.n_rows, split)
    if tr.stop - tr.start < 30:
        raise DataError(
            f"training split has {tr.stop - tr.start} rows; need at least 30"
        )
    u_tr = design.u[tr.start : tr.stop]
    y_tr = design.y[tr.start : tr.stop]
    u_va = design.u[va.start : va.stop]
    y_va = design.y[va.start : va.stop]

    scaler = fit_scaler(y_tr, pad=config.pad)
    z_tr = scaler.transform(y_tr)
    phi_tr = basis_matrix(config.basis, z_tr, config.i_max)
    z_va = scaler.transform(y_va)

    backend_cls = BACKENDS[config.backend]
    hypers = backend_cls.candidates(config.hyper_grid, u_tr, phi_tr)
    preds, swept = backend_cls.sweep(u_tr, phi_tr, u_va, hypers)

    # (candidates x cutoffs) tables of validation losses and their SEs
    losses, ses = cde_loss_curve([pred.b_hat for pred in preds], z_va, config.basis)
    bad = np.argwhere(~np.isfinite(losses))
    if bad.size:
        c, i = bad[0]  # the first bad candidate, then its first bad cutoff
        raise NumericError(
            f"non-finite validation loss at I={int(i)} "
            f"for {config.backend} candidate {hypers[c]!r}"
        )
    i_selected, c_best = divmod(int(np.argmin(losses.T)), len(hypers))

    if i_selected == config.i_max and config.i_max > 0:
        warnings.warn(
            f"selected cutoff I={i_selected} hit i_max; consider raising i_max",
            RuntimeWarning,
        )

    z_fit, n_dropped = z_tr, 0
    if config.refit_final:
        # refit on train+validation rows at the chosen hyperparameter;
        # the scaler stays train-only, so validation responses that fall
        # off the padded range cannot be used as targets and are dropped
        inside = (z_va >= 0.0) & (z_va <= 1.0)
        z_fit, n_dropped = np.concatenate([z_tr, z_va[inside]]), int((~inside).sum())
        phi_va = basis_matrix(config.basis, z_va[inside], config.i_max)
        u_fit, phi_fit = np.vstack([u_tr, u_va[inside]]), np.vstack([phi_tr, phi_va])
        backend = backend_cls.build(u_fit, phi_fit, hypers[: c_best + 1])
    elif swept is not None:  # the sweep fitted the winner on these rows
        backend = swept[c_best]
    else:
        backend = backend_cls.build(u_tr, phi_tr, hypers[: c_best + 1])

    return CoefficientModel(
        scaler=scaler,
        basis=config.basis,
        i_max=config.i_max,
        i_selected=i_selected,
        grid_size=config.grid_size,
        backend_kind=config.backend,
        hyper=float(hypers[c_best]),
        backend=backend,
        val_losses=losses[c_best],
        val_std_errors=ses[c_best],
        candidate_hypers=list(hypers),
        candidate_losses=losses.min(axis=1).tolist(),
        feature_names=list(design.feature_names),
        diagnostics={
            "val_loss": float(losses[c_best, i_selected]),
            "n_fallback_val": int(preds[c_best].n_fallback),
            "n_val_dropped_refit": n_dropped,
            "n_train": int(u_tr.shape[0]),
            "n_val": int(u_va.shape[0]),
            "n_test": int(te.stop - te.start),
            "at_i_max": bool(i_selected == config.i_max),
        },
        train_z=z_fit if hasattr(backend, "train_phi") else None,
        features=design.features,
        split=split,
    )


def predict_density_batch(model, u):
    """Post-processed conditional densities for many covariate rows.

    Any model whose row state needs only covariates (flexcode, NNKCDE)
    tabulates here on its fit-time grid; GARCH's needs the series.
    """
    return model.density_rows(model.row_state(u), model.grid())


def predict_density(model, u):
    """Post-processed conditional density for a single covariate row."""
    batch = predict_density_batch(model, u)
    if batch.density.shape[0] != 1:
        raise DataError("predict_density expects a single covariate row")
    return DensityEstimate(
        grid_y=batch.grid_y,
        density=batch.density[0],
        raw_density=batch.raw_density[0],
        degenerate=bool(batch.degenerate[0]),
    )


def quantiles_from_grid_density(grid_y, density, taus):
    """Invert the CDF of tabulated densities by linear interpolation.

    ``density`` is one row on ``grid_y`` or a 2-D array of rows; the
    result has one quantile per tau, per row for 2-D input.
    """
    out = cdf_quantiles(grid_y, np.atleast_2d(density), taus)
    return out[0] if np.ndim(density) == 1 else out


def cdf_quantiles(grid_y, rows, taus):
    """quantiles_from_grid_density of 2-D density rows: (rows, taus)."""
    steps = np.diff(grid_y)
    cdf = np.zeros((rows.shape[0], grid_y.size))
    cdf[:, 1:] = np.cumsum(0.5 * (rows[:, 1:] + rows[:, :-1]) * steps, axis=1)
    total = cdf[:, -1:]
    if not np.all((total > 0) & np.isfinite(total)):
        raise NumericError("density has no positive mass; quantiles undefined")
    cdf /= total
    return np.array([np.interp(taus, row, grid_y) for row in cdf])


@dataclass
class RowScores:
    """What ``score_rows`` was asked for: loss reports and quantiles, else None."""

    cde: CdeLossReport | None = None
    oracle: CdeLossReport | None = None
    quantiles: np.ndarray | None = None


def score_rows(grid_y, raw, eval_y=None, truth=None, taus=None):
    """Score raw density rows on grid_y one cache-sized slice at a time.

    ``raw`` holds a method's density rows before post-processing (its
    ``raw_rows``). Each slice of max(1, SLICE_ELEMS // grid size) rows is
    clipped and renormalized as ``density_rows`` does, then scored: the
    grid-form loss against the responses ``eval_y``, the oracle loss
    against ``truth(lo, hi)`` (the true density of rows lo..hi on grid_y)
    and the quantiles at ``taus``, each when given. The slices run on the
    row threads (``split_rows``) and write only their own rows'
    contributions, so the reports and quantiles equal ``cde_loss_grid``,
    ``oracle_cde_loss`` and ``quantiles_from_grid_density`` of the whole
    post-processed density bit for bit, while no array the size of
    ``raw`` is allocated. ``truth`` runs on the row threads too.
    """
    if eval_y is not None:
        eval_y = np.asarray(eval_y, dtype=float)
    n_rows = np.shape(raw)[0] if eval_y is None else eval_y.shape[0]
    grid_y, raw = check_tabulated(grid_y, raw, n_rows)
    contrib = inside = oracle = quantiles = None
    if eval_y is not None:
        contrib, inside = np.empty(n_rows), np.empty(n_rows, dtype=bool)
    if truth is not None:
        oracle = np.empty(n_rows)
    if taus is not None:
        taus = check_taus(taus)
        quantiles = np.empty((n_rows, taus.size))

    def score(lo, hi):
        density, _ = renormalize_rows(raw[lo:hi], grid_y)
        if contrib is not None:
            contrib[lo:hi], inside[lo:hi] = grid_loss_terms(grid_y, density,
                                                            eval_y[lo:hi])
        if oracle is not None:
            oracle[lo:hi] = oracle_loss_terms(truth(lo, hi), density, grid_y)
        if quantiles is not None:
            quantiles[lo:hi] = cdf_quantiles(grid_y, density, taus)

    split_rows(n_rows, max(1, SLICE_ELEMS // grid_y.size), score)
    return RowScores(
        cde=None if contrib is None else summarize(contrib, int((~inside).sum())),
        oracle=None if oracle is None else summarize(oracle),
        quantiles=quantiles,
    )


def check_taus(taus):
    """Quantile levels as a 1-d float array, at least one, each inside (0, 1)."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size == 0:
        raise ValueError("no quantile levels given")
    outside = ~((taus > 0.0) & (taus < 1.0))  # NaN is outside too
    if outside.any():
        raise ValueError(f"quantile level {taus[outside][0]} outside (0, 1)")
    return taus


def predict_quantiles(model, u, taus):
    """Conditional quantiles by inverting the post-processed density CDF."""
    taus = check_taus(taus)
    batch = predict_density_batch(model, u)
    out = quantiles_from_grid_density(batch.grid_y, batch.density, taus)
    if out.shape[0] == 1 and np.asarray(u).ndim == 1:
        return out[0]
    return out


def importance(model, u_val=None, y_val=None, n_permutations=5, seed=0):
    """Feature importance scores, one per covariate.

    For a backend that scores from coefficients (lasso) the score of
    feature j is the mean absolute standardized coefficient over the
    selected expansion terms, needing no data. For the others (nw, knn)
    it is permutation importance: the increase in validation density
    loss when column j is shuffled, averaged over ``n_permutations``
    draws and floored at zero.
    """
    if model.backend.scores_from_coefficients:
        return np.abs(model.backend.coef_std[:, : model.i_selected + 1]).mean(axis=1)
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    if u_val is None or y_val is None:
        raise ValueError(
            f"{model.backend_kind} importance is permutation-based and "
            "requires validation covariates and responses"
        )
    u_val = check_queries(np.atleast_2d(u_val), len(model.feature_names))
    y_val = np.asarray(y_val, dtype=float)
    if y_val.shape[0] != u_val.shape[0]:
        raise DataError("u_val and y_val row counts differ")
    z_val = model.scaler.transform(y_val)
    i_cut = model.i_selected

    def loss_of(u):
        b = model.backend.predict(u).b_hat
        return cde_loss_from_coeffs(b, z_val, i_cut, kind=model.basis).loss

    base = loss_of(u_val)
    rng = np.random.default_rng(seed)
    scores = np.empty(u_val.shape[1])
    for j in range(u_val.shape[1]):
        bumps = []
        for _ in range(n_permutations):
            perm = rng.permutation(u_val.shape[0])
            shuffled = u_val.copy()
            shuffled[:, j] = u_val[perm, j]
            bumps.append(loss_of(shuffled) - base)
        scores[j] = max(float(np.mean(bumps)), 0.0)
    return scores
