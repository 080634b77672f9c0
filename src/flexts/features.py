"""Lagged design matrices and temporal train/validation/test splits.

Rows of the design matrix are indexed by the time of the response: the
covariates for predicting y_t are the lags y_{t-1}, ..., y_{t-p}, the
exogenous columns observed strictly before t (or at t when
contemporaneous timing is requested), and rolling statistics of the
response over windows ending at t-1. Splits are contiguous in time so
that validation and test rows always come after the rows used to fit.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from flexts.errors import DataError

ROLLING_STATS = ("mean", "variance", "min", "max")


@dataclass(frozen=True)
class RollingSpec:
    """A rolling statistic of the response over a trailing window."""

    stat: str
    window: int

    def __post_init__(self):
        if self.stat not in ROLLING_STATS:
            raise ValueError(
                f"unknown rolling stat {self.stat!r}; expected one of {ROLLING_STATS}"
            )
        if self.window < 1:
            raise ValueError(f"rolling window must be >= 1, got {self.window}")

    @property
    def name(self):
        return f"roll_{self.stat}{self.window}"


@dataclass
class SeriesTable:
    """A univariate response (``response_name``) with optional exogenous columns."""

    response: np.ndarray
    exogenous: np.ndarray | None = None
    exog_names: list[str] = field(default_factory=list)
    response_name: str = "y"

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=float)
        if self.response.ndim != 1:
            raise DataError(
                f"response must be one-dimensional, got shape {self.response.shape}"
            )
        if not np.all(np.isfinite(self.response)):
            raise DataError("response contains non-finite values")
        if self.exogenous is not None:
            self.exogenous = np.asarray(self.exogenous, dtype=float)
            if self.exogenous.ndim == 1:
                self.exogenous = self.exogenous[:, None]
            if self.exogenous.shape[0] != self.response.shape[0]:
                raise DataError(
                    "exogenous rows do not match response length: "
                    f"{self.exogenous.shape[0]} vs {self.response.shape[0]}"
                )
            if not np.all(np.isfinite(self.exogenous)):
                raise DataError("exogenous columns contain non-finite values")
            if not self.exog_names:
                self.exog_names = [f"x{j}" for j in range(self.exogenous.shape[1])]
            if len(self.exog_names) != self.exogenous.shape[1]:
                raise DataError(
                    "exog_names length does not match exogenous column count"
                )


@dataclass(frozen=True)
class FeatureSpec:
    """How ``lag_embed`` built a design from a series: the columns and covariates.

    ``target`` and ``exog`` name the series' response and exogenous
    columns, so a fitted model's spec reads and embeds a later series the
    way its fit did.
    """

    target: str
    n_lags: int
    rolling: list[RollingSpec] = field(default_factory=list)
    exog: list[str] = field(default_factory=list)
    exog_contemporaneous: bool = False

    def __post_init__(self):
        if self.n_lags < 1:
            raise ValueError(f"n_lags must be >= 1, got {self.n_lags}")
        # the target as a covariate would, with contemporaneous timing, be y_t itself
        if self.target in self.exog:
            raise ValueError(f"exogenous column {self.target!r} is the target")
        if len(set(self.exog)) != len(self.exog):
            raise ValueError(f"exogenous columns repeat a name: {self.exog}")

    @property
    def n_columns(self):
        """The covariate columns ``lag_embed`` builds by this spec."""
        return self.n_lags + len(self.exog) + len(self.rolling)


@dataclass
class DesignMatrix:
    """Covariates, responses, and bookkeeping for one modeling problem.

    ``features`` is the spec ``lag_embed`` built the design by, and
    ``next_u`` the covariate row one step past the series end, which a
    forecast reads; a design built by hand has neither, and ``next_u`` is
    None too under contemporaneous exogenous timing.
    """

    u: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    origin_index: np.ndarray
    features: FeatureSpec | None = None
    next_u: np.ndarray | None = None

    @property
    def n_rows(self):
        return self.y.shape[0]


def _rolling_column(y, spec):
    """Rolling statistic over windows [t-w, t-1], aligned to response index."""
    windows = sliding_window_view(y, spec.window)
    if spec.stat == "mean":
        return windows.mean(axis=1)
    if spec.stat == "variance":
        return windows.var(axis=1)
    if spec.stat == "min":
        return windows.min(axis=1)
    return windows.max(axis=1)


def lag_embed(table, n_lags, rolling=(), exog_contemporaneous=False):
    """Build the lagged design matrix for one series.

    Parameters
    ----------
    table : SeriesTable
        Response and optional exogenous columns.
    n_lags : int
        Number of autoregressive lags p (>= 1).
    rolling : sequence of RollingSpec
        Rolling statistics of the response, windows ending at t-1.
    exog_contemporaneous : bool
        When False (default) exogenous columns enter at t-1; when True
        they enter at t, matching protocols where covariates for time t
        are published together with y_t.

    Returns
    -------
    DesignMatrix
        One row per usable time index t; ``origin_index[r]`` is the
        position of that row's response in the original series, and
        ``features`` records the arguments and the table's column names.
        ``next_u`` is the row for t = len(series), one step past the end,
        which reads only observed values; it is None with contemporaneous
        exogenous columns, whose values at that step are not yet observed.
    """
    exog = table.exog_names if table.exogenous is not None else []
    spec = FeatureSpec(table.response_name, n_lags, list(rolling), list(exog),
                       exog_contemporaneous)
    rolling = spec.rolling
    y = table.response
    n = y.shape[0]
    max_window = max((s.window for s in rolling), default=0)
    if rolling:
        if n_lags + max_window >= n:
            raise DataError(
                f"series of length {n} too short for {n_lags} lags and a "
                f"rolling window of {max_window}"
            )
    elif n_lags >= n:
        raise DataError(f"series of length {n} too short for {n_lags} lags")
    start = n_lags + (max_window - 1 if rolling else 0)
    t = np.arange(start, n)
    ahead = not (exog and exog_contemporaneous)
    u, names = _covariate_rows(table, np.arange(start, n + ahead), n_lags, rolling,
                               exog_contemporaneous)
    return DesignMatrix(u=u[: t.size], y=y[t], feature_names=names, origin_index=t,
                        features=spec, next_u=u[-1] if ahead else None)


def _covariate_rows(table, t, n_lags, rolling, exog_contemporaneous):
    """Covariate rows for responses at indices t, and the column names.

    Every lag, exogenous value and rolling window a row reads lies
    before t (exogenous values at t with contemporaneous timing), so t
    may be len(series), one step past the end.
    """
    y = table.response
    cols = []
    names = []
    for lag in range(1, n_lags + 1):
        cols.append(y[t - lag])
        names.append(f"lag{lag}")
    if table.exogenous is not None:
        shift = 0 if exog_contemporaneous else 1
        for j, name in enumerate(table.exog_names):
            cols.append(table.exogenous[t - shift, j])
            names.append(name if exog_contemporaneous else f"{name}_lag1")
    for spec in rolling:
        col = _rolling_column(y, spec)
        # col[i] covers y[i : i + w]; the window ending at t-1 starts at t-w
        cols.append(col[t - spec.window])
        names.append(spec.name)
    return np.column_stack(cols), names


@dataclass(frozen=True)
class SplitSpec:
    """Fractions of design rows assigned to the three contiguous blocks."""

    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        # written so that a NaN fraction fails both tests
        if not all(f > 0 for f in fracs):
            raise ValueError(f"split fractions must all be positive, got {fracs}")
        if not abs(sum(fracs) - 1.0) <= 1e-8:
            raise ValueError(f"split fractions must sum to 1, got {fracs}")

    @classmethod
    def from_list(cls, fracs):
        """The split of exactly three fractions: train, validation, test."""
        if len(fracs) != 3:
            raise ValueError(f"'split' needs three fractions, got {fracs}")
        return cls(*fracs)


def temporal_split(n_rows, spec=SplitSpec()):
    """Partition row indices 0..n_rows-1 into ordered train/val/test ranges.

    Validation and test sizes are floors of their fractions; training
    takes the remainder, so the three ranges are contiguous, disjoint,
    and exhaustive. Any empty range is an error.
    """
    if n_rows < 10:
        raise DataError(f"need at least 10 design rows to split, got {n_rows}")
    n_val = int(np.floor(n_rows * spec.val_frac))
    n_test = int(np.floor(n_rows * spec.test_frac))
    n_train = n_rows - n_val - n_test
    if n_train <= 0 or n_val <= 0 or n_test <= 0:
        raise DataError(
            f"empty split block for n={n_rows} with fractions "
            f"({spec.train_frac}, {spec.val_frac}, {spec.test_frac})"
        )
    return (
        range(0, n_train),
        range(n_train, n_train + n_val),
        range(n_train + n_val, n_rows),
    )
