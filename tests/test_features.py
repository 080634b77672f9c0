"""Lag embedding, rolling covariates, and temporal splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flexts.errors import DataError
from flexts.features import (
    ROLLING_STATS,
    FeatureSpec,
    RollingSpec,
    SeriesTable,
    SplitSpec,
    lag_embed,
    temporal_split,
)


def table(y, exog=None, names=()):
    return SeriesTable(
        response=np.asarray(y, dtype=float),
        exogenous=None if exog is None else np.asarray(exog, dtype=float),
        exog_names=list(names),
    )


def test_lag_embed_two_lags():
    d = lag_embed(table([1, 2, 3, 4, 5]), n_lags=2)
    np.testing.assert_array_equal(d.u, [[2, 1], [3, 2], [4, 3]])
    np.testing.assert_array_equal(d.y, [3, 4, 5])
    np.testing.assert_array_equal(d.origin_index, [2, 3, 4])
    assert d.feature_names == ["lag1", "lag2"]


def test_lag_embed_rolling_mean():
    d = lag_embed(table([1, 2, 3, 4, 5]), n_lags=1, rolling=[RollingSpec("mean", 2)])
    assert d.feature_names == ["lag1", "roll_mean2"]
    # roll_mean2 at row t averages y[t-2] and y[t-1]
    np.testing.assert_array_equal(d.u, [[2, 1.5], [3, 2.5], [4, 3.5]])
    np.testing.assert_array_equal(d.y, [3, 4, 5])


def test_lag_embed_rolling_variance_is_population():
    y = np.array([1.0, 4.0, 2.0, 8.0, 0.0, 3.0])
    d = lag_embed(table(y), n_lags=1, rolling=[RollingSpec("variance", 3)])
    col = d.u[:, d.feature_names.index("roll_variance3")]
    expected = [np.var(y[t - 3 : t]) for t in d.origin_index]
    np.testing.assert_allclose(col, expected, rtol=1e-14)


def test_lag_embed_exog_lagged_by_default():
    y = [1.0, 2.0, 3.0, 4.0]
    x = [[10.0], [20.0], [30.0], [40.0]]
    d = lag_embed(table(y, x, ["temp"]), n_lags=1)
    assert d.feature_names == ["lag1", "temp_lag1"]
    np.testing.assert_array_equal(d.u, [[1, 10], [2, 20], [3, 30]])

    d2 = lag_embed(table(y, x, ["temp"]), n_lags=1, exog_contemporaneous=True)
    assert d2.feature_names == ["lag1", "temp"]
    np.testing.assert_array_equal(d2.u, [[1, 20], [2, 30], [3, 40]])


def test_exog_columns_exclude_the_target_and_repeats():
    y = [1.0, 2.0, 3.0, 4.0]
    # with contemporaneous timing the target as a covariate would be y_t itself
    for timing in (False, True):
        with pytest.raises(ValueError, match="'y' is the target"):
            lag_embed(table(y, [[1.0]] * 4, ["y"]), n_lags=1,
                      exog_contemporaneous=timing)
    with pytest.raises(ValueError, match="repeat a name"):
        lag_embed(table(y, [[1.0, 2.0]] * 4, ["a", "a"]), n_lags=1)
    with pytest.raises(ValueError, match="'temp' is the target"):
        FeatureSpec("temp", 1, exog=["temp"])


def test_lag_embed_no_future_leakage():
    # every covariate must be recomputable from data strictly before t
    rng = np.random.default_rng(3)
    y = rng.normal(size=60)
    x = rng.normal(size=(60, 2))
    rolling = [RollingSpec("mean", 4), RollingSpec("max", 2)]
    d = lag_embed(table(y, x, ["a", "b"]), n_lags=3, rolling=rolling)
    for r, t in enumerate(d.origin_index):
        past_y, past_x = y[:t], x[:t]
        expected = [past_y[-1], past_y[-2], past_y[-3], past_x[-1, 0], past_x[-1, 1]]
        expected += [past_y[-4:].mean(), past_y[-2:].max()]
        np.testing.assert_allclose(d.u[r], expected, rtol=1e-14)
        assert d.y[r] == y[t]


def test_lag_embed_detects_series_order():
    rng = np.random.default_rng(4)
    y = rng.normal(size=30)
    fwd = lag_embed(table(y), n_lags=2)
    rev = lag_embed(table(y[::-1]), n_lags=2)
    assert not np.array_equal(fwd.u, rev.u[::-1])


def test_lag_embed_too_short_errors():
    with pytest.raises(DataError):
        lag_embed(table([1.0, 2.0, 3.0]), n_lags=3)
    with pytest.raises(DataError):
        lag_embed(table([1.0, 2.0, 3.0]), n_lags=1, rolling=[RollingSpec("mean", 2)])
    with pytest.raises(ValueError):
        lag_embed(table([1.0, 2.0, 3.0]), n_lags=0)


def test_series_table_validation():
    with pytest.raises(DataError):
        table([1.0, np.nan, 2.0])
    with pytest.raises(DataError):
        table([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataError):
        table([1.0, 2.0], exog=[[1.0]], names=["a"])  # length mismatch
    with pytest.raises(DataError):
        table([1.0, 2.0], exog=[[1.0], [2.0]], names=["a", "b"])  # name count


def test_rolling_spec_validation():
    with pytest.raises(ValueError):
        RollingSpec("median", 3)
    with pytest.raises(ValueError):
        RollingSpec("mean", 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_lags=st.integers(1, 4),
       rolling=st.lists(st.builds(RollingSpec, st.sampled_from(ROLLING_STATS),
                                  st.integers(1, 6)), max_size=2),
       n_exog=st.integers(0, 2), contemporaneous=st.booleans())
def test_next_u_is_the_embedding_row_one_step_on(data, n_lags, rolling, n_exog,
                                                 contemporaneous):
    max_window = max((s.window for s in rolling), default=0)
    n = data.draw(st.integers(n_lags + max_window + 1, 40), label="n")
    values = st.floats(-1e6, 1e6)
    # the series and one more value and exogenous row, which the design never reads
    y = data.draw(arrays(float, n + 1, elements=values), label="y")
    x = data.draw(arrays(float, (n + 1, n_exog), elements=values), label="x")
    names = ["a", "b"][:n_exog]

    def embed(rows):
        exog = x[:rows] if n_exog else None
        return lag_embed(table(y[:rows], exog, names), n_lags, rolling, contemporaneous)

    design, longer = embed(n), embed(n + 1)
    rows = design.n_rows
    assert design.u.flags.c_contiguous
    assert design.u.tobytes() == longer.u[:rows].tobytes()
    assert design.y.tobytes() == longer.y[:rows].tobytes()
    assert np.array_equal(design.origin_index, longer.origin_index[:rows])
    if contemporaneous and n_exog:  # the next row would read x at the forecast step
        assert design.next_u is None
    else:
        assert design.next_u.tobytes() == longer.u[-1].tobytes()


def test_next_step_covariates_matches_embedding_convention():
    rng = np.random.default_rng(9)
    y = rng.normal(size=40)
    x = rng.normal(size=(40, 1))
    rolling = [RollingSpec("mean", 5)]
    row = lag_embed(table(y, x, ["a"]), n_lags=2, rolling=rolling).next_u
    expected = [y[-1], y[-2], x[-1, 0], y[-5:].mean()]
    np.testing.assert_allclose(row, expected, rtol=1e-14)


def test_next_step_row_is_the_embedding_row_one_step_on():
    rng = np.random.default_rng(11)
    y = rng.normal(size=60)
    x = rng.normal(size=(60, 2))
    rolling = [RollingSpec("mean", 4), RollingSpec("variance", 6),
               RollingSpec("max", 3)]
    row = lag_embed(table(y, x, ["a", "b"]), n_lags=3, rolling=rolling).next_u
    # the last embedding row reads neither the appended value nor its exog row
    longer = table(np.append(y, 99.0), np.vstack([x, [[7.0, -7.0]]]), ["a", "b"])
    assert np.array_equal(row, lag_embed(longer, 3, rolling=rolling).u[-1])


def test_temporal_split_n10():
    tr, va, te = temporal_split(10)
    assert (list(tr), list(va), list(te)) == (
        list(range(0, 7)),
        [7],
        [8, 9],
    )


def test_temporal_split_n40000():
    tr, va, te = temporal_split(40000)
    assert (len(tr), len(va), len(te)) == (28000, 4000, 8000)


def test_temporal_split_too_small_errors():
    with pytest.raises(DataError):
        temporal_split(9)


def test_temporal_split_empty_block_errors():
    with pytest.raises(DataError):
        temporal_split(50, SplitSpec(0.98, 0.01, 0.01))


def test_temporal_split_partition_property():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(10, 5000))
        f_val = float(rng.uniform(0.05, 0.3))
        f_test = float(rng.uniform(0.05, 0.3))
        spec = SplitSpec(1.0 - f_val - f_test, f_val, f_test)
        try:
            tr, va, te = temporal_split(n, spec)
        except DataError:
            continue
        joined = list(tr) + list(va) + list(te)
        assert joined == list(range(n))
        assert len(va) == int(np.floor(n * f_val))
        assert len(te) == int(np.floor(n * f_test))
        assert max(tr) < min(va) < min(te)


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.8, 0.0, 0.2)
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.2, 0.2)
    for fracs in [(0.5, 0.5, np.nan), (np.nan, 0.5, 0.5), (0.5, np.inf, 0.5)]:
        with pytest.raises(ValueError):
            SplitSpec(*fracs)
