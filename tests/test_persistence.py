"""Model files: exact float round-trip and bitwise-identical predictions."""

import dataclasses
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flexts.baselines import garch_density_rows, garch_filter, garch_fit, nnkcde_fit
from flexts.basis import BASIS_KINDS, fit_scaler
from flexts.cli import BenchConfig
from flexts.errors import DataError
from flexts import estimator, regression
from flexts.estimator import (
    FitConfig,
    fit,
    predict_density,
    predict_density_batch,
    predict_quantiles,
)
from flexts.features import (
    ROLLING_STATS,
    FeatureSpec,
    RollingSpec,
    SeriesTable,
    SplitSpec,
    lag_embed,
)
from flexts.persistence import FORMAT_VERSION, decode, load_model, save_model
from flexts.regression import BACKEND_KINDS
from flexts.scenarios import generate
from model_fixtures import NAMES, data_dir, fit_models


TAUS = np.linspace(0.05, 0.95, 19)


def ar_design(n=500, seed=0):
    return lag_embed(SeriesTable(response=generate("ar", n, seed)), n_lags=3)


def test_seventeen_digit_floats_round_trip_exactly():
    rng = np.random.default_rng(0)
    samples = np.concatenate(
        [rng.normal(size=50), [0.1, 1 / 3, 1e-308, 1e308, -0.0, np.pi]]
    )
    for x in samples:
        # version-1 files' decimal strings, and version 2's json floats
        assert float(format(float(x), ".17g")) == float(x)
        assert json.loads(json.dumps(float(x))) == float(x)


@pytest.mark.parametrize("backend", ["nw", "knn", "lasso"])
def test_flexcode_round_trip_is_bitwise(tmp_path, backend):
    design = ar_design()
    model = fit(design, config=FitConfig(backend=backend))
    path = tmp_path / "model.json"
    save_model(path, "flexcode", model, metadata={"target": "y", "n_lags": 3})
    method, loaded, meta = load_model(path)
    assert method == "flexcode"
    assert meta["n_lags"] == 3
    assert (loaded.features, loaded.split) == (design.features, SplitSpec())
    assert loaded.i_selected == model.i_selected
    assert loaded.hyper == model.hyper
    u = design.u[-10:]
    a = predict_density_batch(model, u)
    b = predict_density_batch(loaded, u)
    np.testing.assert_array_equal(a.density, b.density)
    np.testing.assert_array_equal(a.raw_density, b.raw_density)
    # single-row forecasts, on each model's prepared grid and training side
    for row in u[:3]:
        a, b = predict_density(model, row), predict_density(loaded, row)
        assert a.density.tobytes() == b.density.tobytes()
        assert a.raw_density.tobytes() == b.raw_density.tobytes()
        assert (predict_quantiles(model, row, TAUS).tobytes()
                == predict_quantiles(loaded, row, TAUS).tobytes())


def test_forecasts_reuse_what_the_loaded_model_prepared(tmp_path, monkeypatch):
    design = ar_design()
    path = tmp_path / "nw.json"
    save_model(path, "flexcode", fit(design, config=FitConfig(backend="nw")))
    model = load_model(path)[1]
    n_train = len(model.backend.train_u)
    rows = design.u[-11:]
    first = predict_density(model, rows[0])
    basis_calls, training_norms = [], []
    basis_matrix, sq_norms = estimator.basis_matrix, regression.sq_norms

    def counting_basis(*args):
        basis_calls.append(args)
        return basis_matrix(*args)

    def counting_norms(x):
        if len(x) == n_train:
            training_norms.append(x)
        return sq_norms(x)

    monkeypatch.setattr(estimator, "basis_matrix", counting_basis)
    monkeypatch.setattr(regression, "sq_norms", counting_norms)
    for row in rows[1:]:
        predict_density(model, row)
        predict_quantiles(model, row, TAUS)
    assert (len(basis_calls), len(training_norms)) == (0, 0)

    # another grid is tabulated afresh; a new grid size builds a new model
    fine = np.linspace(model.scaler.lo, model.scaler.hi, 2001)
    coeffs = estimator.predict_coefficients(model, rows[:1])
    fresh = estimator.tabulate_density(model, coeffs, fine)
    assert len(basis_calls) == 1
    regridded = dataclasses.replace(model, grid_size=2001)
    assert len(basis_calls) == 2
    got = predict_density(regridded, rows[0])
    assert got.grid_y.tobytes() == fine.tobytes()
    assert got.density.tobytes() == fresh.density[0].tobytes()
    assert predict_density(model, rows[0]).grid_y.size == model.grid_size

    # a caller cannot write into the prepared grid or change what it depends on
    with pytest.raises(ValueError, match="read-only"):
        first.grid_y[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        model.grid()[:] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.i_selected = 0
    again = predict_density(model, rows[0])
    assert again.grid_y.tobytes() == first.grid_y.tobytes()
    assert again.density.tobytes() == first.density.tobytes()


def test_every_fitted_model_is_frozen():
    for _, model, _ in fit_models().values():
        for obj in (model, getattr(model, "backend", model)):
            field = dataclasses.fields(obj)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, getattr(obj, field))


def test_saving_twice_gives_identical_bytes(tmp_path):
    model = fit(ar_design(), config=FitConfig(backend="knn"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, "flexcode", model, metadata={"split": [0.7, 0.1, 0.2]})
    save_model(p2, "flexcode", model, metadata={"split": [0.7, 0.1, 0.2]})
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("backend,refit_final",
                         itertools.product(["nw", "knn"], [False, True]))
def test_files_keep_responses_and_load_rebuilds_the_basis_rows(tmp_path, backend,
                                                               refit_final):
    config = FitConfig(backend=backend, basis="fourier", refit_final=refit_final)
    model = fit(ar_design(), config=config)
    path = tmp_path / "m.json"
    save_model(path, "flexcode", model)
    body = json.loads(path.read_text())["model"]
    assert "train_phi" not in body["backend"]
    n_rows = model.backend.train_phi.shape[0]
    assert len(body["train_z"]) == len(body["backend"]["train_u"]) == n_rows
    if refit_final:  # the training rows, then the validation rows kept
        assert n_rows > model.diagnostics["n_train"]
    loaded = load_model(path)[1]
    assert loaded.train_z.tobytes() == model.train_z.tobytes()
    assert loaded.backend.train_phi.tobytes() == model.backend.train_phi.tobytes()


def test_nnkcde_round_trip(tmp_path):
    y = generate("ar", 400, 1)
    lags = np.column_stack([y[2:-1], y[1:-2], y[:-3]])
    resp = y[3:]
    model = nnkcde_fit(
        lags[:300], resp[:300], lags[300:], resp[300:], lo=-4, hi=4
    )
    path = tmp_path / "nnkcde.json"
    save_model(path, "nnkcde", model)
    method, loaded, _ = load_model(path)
    assert method == "nnkcde"
    assert (loaded.k, loaded.h, loaded.lo, loaded.hi) == (
        model.k, model.h, model.lo, model.hi,
    )
    u = lags[-5:]
    np.testing.assert_array_equal(
        model.predict_density_batch(u), loaded.predict_density_batch(u)
    )
    for row in u[:3]:
        assert (model.predict_density(row).tobytes()
                == loaded.predict_density(row).tobytes())


def test_garch_round_trip(tmp_path):
    y = generate("nonlinear_variance", 600, 2)
    model = garch_fit(y, p=2)
    path = tmp_path / "garch.json"
    save_model(path, "garch", model)
    method, loaded, _ = load_model(path)
    assert method == "garch"
    assert (loaded.c, loaded.omega, loaded.alpha, loaded.beta, loaded.s2_init) == (
        model.c, model.omega, model.alpha, model.beta, model.s2_init,
    )
    np.testing.assert_array_equal(loaded.ar, model.ar)
    m1, s1 = garch_filter(model, y)
    m2, s2 = garch_filter(loaded, y)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(s1, s2)


def test_model_file_is_sorted_versioned_json(tmp_path):
    model = fit(ar_design(n=300))
    path = tmp_path / "m.json"
    save_model(path, "flexcode", model)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert list(doc) == sorted(doc)


def test_load_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_model(bad)

    noversion = tmp_path / "nv.json"
    noversion.write_text(json.dumps({"method": "flexcode", "model": {}}))
    with pytest.raises(DataError, match="format_version"):
        load_model(noversion)

    future = tmp_path / "future.json"
    future.write_text(json.dumps({"format_version": 99, "method": "garch",
                                  "model": {}}))
    with pytest.raises(DataError, match="format_version 99"):
        load_model(future)

    unknown = tmp_path / "uk.json"
    unknown.write_text(json.dumps({"format_version": 1, "method": "forest",
                                   "model": {}}))
    with pytest.raises(DataError):
        load_model(unknown)


def test_decode_reads_each_field_by_its_annotation():
    cfg = decode(BenchConfig, {"sizes": [300.0, "400"], "pad": 1, "oracle": False,
                               "backend": "knn", "not_a_field": None})
    assert (cfg.sizes, cfg.pad, cfg.oracle, cfg.backend) == ([300, 400], 1.0,
                                                              False, "knn")
    assert [type(n) for n in cfg.sizes] == [int, int]
    assert cfg.i_max == BenchConfig().i_max  # absent fields keep their defaults
    for doc, message in [
        ({"sizes": [True]}, "'sizes' must be a list of int"),
        ({"sizes": [300.5]}, "'sizes' must be a list of int"),
        ({"pad": True}, "'pad' must be float"),
        ({"oracle": 1}, "'oracle' must be bool"),
        ({"backend": None}, "'backend' must be str"),  # a str field, not a model
        ({"i_max": float("inf")}, "'i_max' must be int"),
    ]:
        with pytest.raises(ValueError, match=message):
            decode(BenchConfig, doc)


def test_save_rejects_unknown_method(tmp_path):
    with pytest.raises(ValueError):
        save_model(tmp_path / "x.json", "forest", object())
    # a known method whose model class the object is not
    model = fit(ar_design(n=300))
    for method in ("nnkcde", "garch"):
        with pytest.raises(ValueError, match="CoefficientModel"):
            save_model(tmp_path / "x.json", method, model)
    assert not (tmp_path / "x.json").exists()


def assert_same(a, b, where="model"):
    """Equal field by field; arrays of equal dtype, shape and bytes."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, (list, dict)):
        assert type(b) is type(a) and len(b) == len(a), where
        keys = a.keys() if isinstance(a, dict) else range(len(a))
        for k in keys:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, float):
        # numpy float scalars come back as python floats of the same bits
        assert type(b) is float and repr(float(a)) == repr(b), where
    else:
        assert type(b) is type(a) and a == b, where


def round_trip(path, method, model):
    """Save, load and save again; returns the loaded model."""
    save_model(path, method, model, {"n": 1})
    got_method, loaded, meta = load_model(path)
    assert (got_method, meta) == (method, {"n": 1})
    assert_same(model, loaded)
    first = path.read_bytes()
    save_model(path, method, loaded, {"n": 1})
    assert path.read_bytes() == first
    return loaded


PROPERTY_SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
SERIES = st.tuples(
    st.sampled_from(["ar", "nonlinear_mean", "nonlinear_variance"]),
    st.integers(150, 320),
    st.integers(0, 2**16),
)


@pytest.mark.parametrize(
    "backend,basis,refit_final",
    list(itertools.product(BACKEND_KINDS, BASIS_KINDS, (False, True))),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY_SETTINGS
@given(series=SERIES, n_lags=st.integers(1, 3), i_max=st.integers(1, 12))
def test_flexcode_save_load_is_exact(tmp_path, backend, basis, refit_final,
                                     series, n_lags, i_max):
    design = lag_embed(SeriesTable(generate(*series)), n_lags)
    config = FitConfig(backend=backend, basis=basis, i_max=i_max,
                       refit_final=refit_final)
    model = fit(design, config=config)
    loaded = round_trip(tmp_path / "m.json", "flexcode", model)
    u = design.u[-25:]
    a, b = predict_density_batch(model, u), predict_density_batch(loaded, u)
    assert a.density.tobytes() == b.density.tobytes()
    assert a.raw_density.tobytes() == b.raw_density.tobytes()


@PROPERTY_SETTINGS
@given(series=SERIES)
def test_nnkcde_save_load_is_exact(tmp_path, series):
    design = lag_embed(SeriesTable(generate(*series)), 2)
    n_tr = int(0.7 * design.n_rows)
    scaler = fit_scaler(design.y[:n_tr])
    model = nnkcde_fit(design.u[:n_tr], design.y[:n_tr], design.u[n_tr:],
                       design.y[n_tr:], scaler.lo, scaler.hi, grid_size=201)
    loaded = round_trip(tmp_path / "m.json", "nnkcde", model)
    u = design.u[-25:]
    assert (model.predict_density_batch(u).tobytes()
            == loaded.predict_density_batch(u).tobytes())


@PROPERTY_SETTINGS
@given(series=SERIES, p=st.integers(0, 2))
def test_garch_save_load_is_exact(tmp_path, series, p):
    y = generate(*series)
    model = garch_fit(y, p)
    loaded = round_trip(tmp_path / "m.json", "garch", model)
    grid = np.linspace(y.min(), y.max(), 101)
    a, b = (garch_density_rows(*garch_filter(m, y), grid) for m in (model, loaded))
    assert a.tobytes() == b.tobytes()


FEATURE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FEATURE_SETTINGS
@given(n_lags=st.integers(1, 5),
       rolling=st.dictionaries(st.sampled_from(ROLLING_STATS), st.integers(2, 6)),
       n_exog=st.integers(0, 2), contemporaneous=st.booleans(),
       seed=st.integers(0, 2**16))
def test_feature_specs_round_trip(tmp_path, n_lags, rolling, n_exog,
                                  contemporaneous, seed):
    y = generate("ar", 300, seed)
    exog = np.random.default_rng(seed).normal(size=(300, n_exog))
    names = ["temp", "load"][:n_exog]
    table = SeriesTable(y, exog if n_exog else None, list(names), "close")
    rolling = [RollingSpec(stat, window) for stat, window in rolling.items()]
    design = lag_embed(table, n_lags, rolling, contemporaneous)
    spec = FeatureSpec("close", n_lags, rolling, names, contemporaneous)
    assert design.features == spec
    split = SplitSpec(0.6, 0.2, 0.2)
    model = fit(design, split, FitConfig(backend="knn", i_max=5))
    path = tmp_path / "m.json"
    save_model(path, "flexcode", model)
    loaded = load_model(path)[1]
    assert (loaded.features, loaded.split) == (spec, split)
    first = path.read_bytes()
    save_model(path, "flexcode", loaded)
    assert path.read_bytes() == first


@pytest.fixture(scope="module")
def fresh_fits():
    with pytest.warns(RuntimeWarning):  # the lasso fit selects I at i_max
        return fit_models()


def predictions(method, model, rows):
    """The bytes of what a model predicts: densities, or the garch filter."""
    if method == "flexcode":
        batch = predict_density_batch(model, rows)
        one = predict_density(model, rows[0])  # the single-row path
        return b"".join(a.tobytes() for a in (
            batch.density, batch.raw_density, one.density, one.raw_density))
    if method == "nnkcde":
        one = model.predict_density(rows[0])
        return model.predict_density_batch(rows).tobytes() + one.tobytes()
    return b"".join(a.tobytes() for a in garch_filter(model, rows))


@pytest.mark.parametrize("name", ["flexcode_lasso", "nnkcde", "garch"])
def test_files_without_basis_rows_change_only_their_version(tmp_path, fresh_fits,
                                                            name):
    method, model, _ = fresh_fits[name]
    path = tmp_path / "m.json"
    save_model(path, method, model, {"fixture": name})
    with open(os.path.join(data_dir(2), f"{name}.json")) as fh:
        old = json.load(fh)
    new = json.loads(path.read_text())
    # besides the version, format 4 holds the feature spec and the split,
    # in place of a flexcode model's lag count
    specs = {key: new["model"].pop(key) for key in ("features", "split")}
    old["model"].pop("n_lags", None)
    assert new == {**old, "format_version": FORMAT_VERSION}
    if method == "flexcode":  # fitted on 3 lags of "y" with the default split
        assert specs == {
            "features": {"target": "y", "n_lags": 3, "rolling": [], "exog": [],
                         "exog_contemporaneous": False},
            "split": {"train_frac": 0.7, "val_frac": 0.1, "test_frac": 0.2},
        }
    else:  # fitted by the library, which records neither
        assert specs == {"features": None, "split": None}


# the version-1 cases keep their ids; the others are suffixed with their version
@pytest.mark.parametrize("version,name", [
    pytest.param(version, name, id=name if version == 1 else f"{name}-v{version}")
    for version in (1, 2, 3) for name in NAMES
])
def test_version_1_files_predict_like_a_fresh_fit(tmp_path, fresh_fits, version,
                                                  name):
    path = os.path.join(data_dir(version), f"{name}.json")
    assert os.path.getsize(path) < 40_000
    with open(path) as fh:
        assert json.load(fh)["format_version"] == version
    method, loaded, meta = load_model(path)
    fresh_method, fresh, rows = fresh_fits[name]
    assert (method, meta) == (fresh_method, {"fixture": name})
    # the fixtures' metadata records no feature spec or split
    assert (loaded.features, loaded.split) == (None, None)
    assert predictions(method, loaded, rows) == predictions(method, fresh, rows)
    if method == "flexcode":
        assert (loaded.backend_kind, loaded.hyper, loaded.i_selected) == (
            fresh.backend_kind, fresh.hyper, fresh.i_selected)
        assert loaded.candidate_hypers == fresh.candidate_hypers
        if loaded.backend_kind == "nw":
            # the fit's ring sweep adds each radius's neighbors in another
            # order than the version-1 build did; predictions stay bitwise
            np.testing.assert_allclose(loaded.candidate_losses,
                                       fresh.candidate_losses, rtol=1e-12)
            np.testing.assert_allclose(loaded.val_losses, fresh.val_losses,
                                       rtol=1e-12)
        else:
            assert loaded.candidate_losses == fresh.candidate_losses
            assert loaded.val_losses.tobytes() == fresh.val_losses.tobytes()
        if version < 3:  # the basis rows, not the responses behind them
            assert loaded.train_z is None
        else:
            assert np.array_equal(loaded.train_z, fresh.train_z)
        if hasattr(fresh.backend, "train_phi"):
            assert (loaded.backend.train_phi.tobytes()
                    == fresh.backend.train_phi.tobytes())
    # saved again, an older model becomes a file of the current version
    again = tmp_path / "again.json"
    save_model(again, method, loaded)
    with open(again) as fh:
        assert json.load(fh)["format_version"] == FORMAT_VERSION
    reloaded = load_model(again)[1]
    assert predictions(method, reloaded, rows) == predictions(method, fresh, rows)
