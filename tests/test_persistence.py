"""Model files: exact float round-trip and bitwise-identical predictions."""

import dataclasses
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    quantiles_from_grid_density,
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
        # 17 significant digits name every double, and json writes repr's
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
    fresh = model.density_rows(model.row_state(rows[:1]), fine)
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
        assert (predict_density(model, row).density.tobytes()
                == predict_density(loaded, row).density.tobytes())


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
    unknown.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                   "method": "forest", "model": {}}))
    with pytest.raises(DataError, match="unknown method 'forest'"):
        load_model(unknown)


def test_decode_reads_each_field_by_its_annotation():
    cfg = decode(BenchConfig, {"sizes": [300.0, 400], "pad": 1, "oracle": False,
                               "backend": "knn", "not_a_field": None})
    assert (cfg.sizes, cfg.pad, cfg.oracle, cfg.backend) == ([300, 400], 1.0,
                                                              False, "knn")
    assert [type(n) for n in cfg.sizes] == [int, int]
    assert cfg.i_max == BenchConfig().i_max  # absent fields keep their defaults
    for doc, message in [
        ({"sizes": [True]}, "'sizes' must be a list of int"),
        ({"sizes": [300.5]}, "'sizes' must be a list of int"),
        ({"sizes": ["400"]}, "'sizes' must be a list of int"),  # a string, no number
        ({"pad": "0.1"}, "'pad' must be float"),
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
    assert a.density.tobytes() == b.density.tobytes()


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
    if method == "garch":
        return b"".join(a.tobytes() for a in garch_filter(model, rows))
    batch = predict_density_batch(model, rows)
    one = predict_density(model, rows[0])  # the single-row path
    return b"".join(a.tobytes() for a in (
        batch.density, batch.raw_density, one.density, one.raw_density))


@pytest.mark.parametrize("name", NAMES)
def test_committed_files_predict_like_a_fresh_fit(tmp_path, fresh_fits, name):
    path = os.path.join(data_dir(FORMAT_VERSION), f"{name}.json")
    method, loaded, meta = load_model(path)
    fresh_method, fresh, rows = fresh_fits[name]
    assert (method, meta) == (fresh_method, {"fixture": name})
    assert predictions(method, loaded, rows) == predictions(method, fresh, rows)
    again = tmp_path / "again.json"
    save_model(again, method, loaded, meta)
    with open(path, "rb") as fh:
        assert again.read_bytes() == fh.read()


def test_files_that_keep_basis_rows_load_like_any_other(tmp_path, fresh_fits):
    # a model without its training responses saves its backend's basis rows
    _, fresh, rows = fresh_fits["flexcode_nw"]
    model = dataclasses.replace(fresh, train_z=None)
    path = tmp_path / "m.json"
    save_model(path, "flexcode", model)
    assert "train_phi" in json.loads(path.read_text())["model"]["backend"]
    loaded = round_trip(path, "flexcode", model)
    assert predictions("flexcode", loaded, rows) == predictions("flexcode", fresh, rows)


def test_every_model_checks_its_grid_size(fresh_fits):
    for _, model, _ in fresh_fits.values():
        with pytest.raises(ValueError, match="grid_size must be odd and >= 101"):
            dataclasses.replace(model, grid_size=100)


# ---------------------------------------------------------------------------
# fuzz: every field of every committed model file, one at a time
# ---------------------------------------------------------------------------


def field_paths(doc, owner=()):
    """The key path of every field in ``doc``, nested objects and their fields."""
    for key, value in doc.items():
        yield owner + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, owner + (key,))


def committed_doc(name):
    with open(os.path.join(data_dir(FORMAT_VERSION), f"{name}.json")) as fh:
        return json.load(fh)


FUZZ_CASES = [(name, path) for name in NAMES
              for path in field_paths(committed_doc(name)["model"])]
ADVERSARIAL = (float("nan"), float("inf"), float("-inf"), 0, -1, 2.5, True, "x",
               None, [], {})
FUZZ_SERIES = generate("ar", 160, 5)


def fuzzed_densities(method, model):
    """The densities a loaded model gives on FUZZ_SERIES: every design row and
    the forecast one step past its end."""
    if method == "garch":
        return [model.density_rows(model.row_state(None, FUZZ_SERIES, rows),
                                   model.grid())
                for rows in (slice(None), None)]
    width = len(model.feature_names) if method == "flexcode" else model.train_u.shape[1]
    spec = model.features or FeatureSpec("y", width)
    exog = np.random.default_rng(6).normal(size=(FUZZ_SERIES.size, len(spec.exog)))
    table = SeriesTable(FUZZ_SERIES, exog if spec.exog else None, list(spec.exog),
                        spec.target)
    design = lag_embed(table, spec.n_lags, spec.rolling, spec.exog_contemporaneous)
    rows = [design.u] if design.next_u is None else [design.u, design.next_u]
    return [predict_density_batch(model, u) for u in rows]


def with_every_adversarial_value(test):
    for case in FUZZ_CASES:
        for value in ADVERSARIAL:
            test = example(case=case, value=value)(test)
    return test


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(PROPERTY_SETTINGS, max_examples=100)
@with_every_adversarial_value
@given(case=st.sampled_from(FUZZ_CASES),
       value=st.sampled_from(ADVERSARIAL) | st.floats() | st.integers())
def test_a_model_file_with_any_field_changed_loads_sound_or_is_a_data_error(
        tmp_path, case, value):
    name, path = case
    doc = committed_doc(name)
    owner = doc["model"]
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    file = tmp_path / "fuzzed.json"
    file.write_text(json.dumps(doc))
    try:
        method, model, _ = load_model(file)
    except DataError:
        return
    for batch in fuzzed_densities(method, model):
        density = batch.density
        assert np.all(np.isfinite(density)) and np.all(density >= 0), (case, value)
        np.testing.assert_allclose(np.trapezoid(density, batch.grid_y, axis=1), 1.0,
                                   atol=1e-8)
        quantiles = quantiles_from_grid_density(batch.grid_y, density, TAUS)
        assert np.all(np.diff(quantiles, axis=1) >= 0), (case, value)


@pytest.mark.parametrize("name", NAMES)
def test_a_model_range_whose_square_leaves_the_floats_is_a_data_error(tmp_path,
                                                                     name):
    for lo, hi in ((-1e200, 1e200), (0.0, 1e-300)):
        doc = committed_doc(name)
        owner = doc["model"]["scaler"] if name.startswith("flexcode") else doc["model"]
        owner.update(lo=lo, hi=hi)
        file = tmp_path / "ranged.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="reciprocal square is not a finite"):
            load_model(file)
