"""Command-line interface: subcommands, file formats, and exit codes."""

import copy
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flexts import baselines, cli, estimator, regression
from flexts.basis import MAX_GRID_SIZE, MAX_I_MAX
from flexts.features import (
    FeatureSpec,
    RollingSpec,
    SeriesTable,
    SplitSpec,
    lag_embed,
    temporal_split,
)
from flexts.persistence import load_model
from flexts.scenarios import generate

def run(argv, capsys=None):
    code = cli.main([str(a) for a in argv])
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def simulate(tmp_path, name="ar", n=400, seed=7, fname="series.csv"):
    out = tmp_path / fname
    assert run(["simulate", "--scenario", name, "--n", n, "--seed", seed,
                "-o", out]) == 0
    return out


def fit(tmp_path, data, method="flexcode", fname=None, extra=()):
    out = tmp_path / (fname or f"{method}.json")
    argv = ["fit", "--input", data, "--method", method, "-o", out, *extra]
    assert run(argv) == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_y_column(tmp_path):
    out = simulate(tmp_path, n=120)
    rows = read_rows(out)
    assert rows[0] == ["y"]
    assert len(rows) == 121
    values = np.array([float(r[0]) for r in rows[1:]])
    np.testing.assert_array_equal(values, generate("ar", 120, 7))


def test_simulate_is_deterministic(tmp_path):
    a = simulate(tmp_path, n=150, fname="a.csv")
    b = simulate(tmp_path, n=150, fname="b.csv")
    c = simulate(tmp_path, n=150, seed=8, fname="c.csv")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_jump_indicator_column(tmp_path):
    out = tmp_path / "jump.csv"
    assert run(["simulate", "--scenario", "arma_jump", "--n", 150, "--seed", 1,
                "--with-jumps", "-o", out]) == 0
    rows = read_rows(out)
    assert rows[0] == ["y", "z_jump"]
    assert set(r[1] for r in rows[1:]) <= {"0", "1"}
    assert run(["simulate", "--scenario", "ar", "--n", 150, "--seed", 1,
                "--with-jumps", "-o", tmp_path / "x.csv"]) == 2


def test_simulate_out_of_scope_scenario(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--scenario", "jump_diffusion", "--n", 200, "-o",
         tmp_path / "x.csv"],
        capsys,
    )
    assert code == 2
    assert err.count("\n") == 1
    assert err.startswith("flexts: error: usage:")
    assert "out of scope" in err


def test_simulate_unknown_scenario_exit_code(tmp_path):
    assert run(["simulate", "--scenario", "brownian", "--n", 200,
                "-o", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("sigma_nm", ["0", "-0.5", "nan", "inf"])
def test_simulate_checks_sigma_nm(tmp_path, capsys, sigma_nm):
    out = tmp_path / "x.csv"
    code, _, err = run(["simulate", "--scenario", "nonlinear_mean", "--n", 200,
                        "--sigma-nm", sigma_nm, "-o", out], capsys)
    assert code == 2
    assert "sigma_nm must be positive and finite" in err
    assert not out.exists()


def test_csv_round_trip_is_value_identical(tmp_path):
    src = simulate(tmp_path, n=200)
    cols = cli.read_series_csv(src, "y")
    again = tmp_path / "again.csv"
    cli.write_csv(again, ["y"], [(v,) for v in cols["y"]])
    assert src.read_bytes() == again.read_bytes()


def test_env_seed_is_the_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FLEXTS_SEED", "7")
    out = tmp_path / "env.csv"
    assert run(["simulate", "--scenario", "ar", "--n", 150, "-o", out]) == 0
    explicit = simulate(tmp_path, n=150, seed=7, fname="explicit.csv")
    assert out.read_bytes() == explicit.read_bytes()
    monkeypatch.setenv("FLEXTS_SEED", "seven")
    assert run(["simulate", "--scenario", "ar", "--n", 150, "-o", out]) == 2


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_flexcode_reports_selection(tmp_path, capsys):
    data = simulate(tmp_path)
    out = tmp_path / "model.json"
    code, stdout, _ = run(
        ["fit", "--input", data, "--backend", "nw", "--lags", 3, "-o", out],
        capsys,
    )
    assert code == 0
    assert "I=" in stdout and "validation loss curve" in stdout
    doc = json.loads(out.read_text())
    assert doc["method"] == "flexcode"
    assert doc["model"]["features"]["n_lags"] == 3


def test_fit_same_flags_same_bytes(tmp_path):
    data = simulate(tmp_path)
    a = fit(tmp_path, data, fname="a.json")
    b = fit(tmp_path, data, fname="b.json")
    assert a.read_bytes() == b.read_bytes()


def test_fit_insufficient_rows(tmp_path, capsys):
    data = tmp_path / "short.csv"
    cli.write_csv(data, ["y"], [(float(v),) for v in range(60)])
    code, _, err = run(
        ["fit", "--input", data, "--lags", 50, "-o", tmp_path / "m.json"],
        capsys,
    )
    assert code == 3
    assert err.startswith("flexts: error: data:")
    assert err.count("\n") == 1


def test_fit_constant_series_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    cli.write_csv(data, ["y"], [(2.5,) for _ in range(200)])
    code, _, err = run(["fit", "--input", data, "-o", tmp_path / "m.json"], capsys)
    assert code == 3
    assert err.startswith("flexts: error: data: training responses are constant")


def test_fit_parse_error_reports_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("y\n1.0\noops\n2.0\n")
    code, _, err = run(
        ["fit", "--input", data, "-o", tmp_path / "m.json"], capsys
    )
    assert code == 3
    assert "line 3" in err and "oops" in err


def test_fit_missing_target_column(tmp_path, capsys):
    data = simulate(tmp_path)
    code, _, err = run(
        ["fit", "--input", data, "--target", "close", "-o", tmp_path / "m.json"],
        capsys,
    )
    assert code == 3
    assert "close" in err
    # with the column there, evaluate and predict read it by the model's spec
    y = [float(row[0]) for row in read_rows(data)[1:]]
    prices = tmp_path / "prices.csv"
    cli.write_csv(prices, ["open", "close"], [(0.0, v) for v in y])
    outputs = {}
    for name, series, extra in (("close", prices, ("--target", "close")),
                                ("y", data, ())):
        model = fit(tmp_path, series, fname=f"{name}.json", extra=extra)
        for kind, argv in (("eval", ["evaluate", "--model", model]),
                           ("next", ["predict", "--model", model]),
                           ("row", ["predict", "--model", model, "--row", 5])):
            out = tmp_path / f"{name}_{kind}.csv"
            assert run([*argv, "--input", series, "-o", out]) == 0, (name, kind)
            outputs[name, kind] = out
    for kind in ("next", "row"):
        assert outputs["close", kind].read_bytes() == outputs["y", kind].read_bytes()
    evals = {name: read_rows(outputs[name, "eval"])[1][1:] for name in ("close", "y")}
    assert evals["close"] == evals["y"]  # all but the model path


def test_fit_nnkcde_and_garch(tmp_path):
    data = simulate(tmp_path)
    nn = fit(tmp_path, data, method="nnkcde")
    ga = fit(tmp_path, data, method="garch")
    assert json.loads(nn.read_text())["method"] == "nnkcde"
    assert json.loads(ga.read_text())["method"] == "garch"
    code = run(["fit", "--input", data, "--method", "garch",
                "--rolling", "mean:3", "-o", tmp_path / "x.json"])
    assert code == 2


def test_fit_rolling_and_exog_features(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "exog.csv"
    y = generate("ar", 300, 2)
    x = rng.normal(size=300)
    cli.write_csv(data, ["y", "x"], list(zip(y, x)))
    out = fit(
        tmp_path,
        data,
        extra=("--rolling", "mean:4", "--exog", "x", "--lags", "2"),
    )
    _, model, _ = load_model(out)
    assert model.feature_names == ["lag1", "lag2", "x_lag1", "roll_mean4"]
    assert model.features == FeatureSpec("y", 2, [RollingSpec("mean", 4)], ["x"])
    # evaluate and predict build the fit's covariates from the model's spec
    assert run(["evaluate", "--model", out, "--input", data,
                "-o", tmp_path / "eval.csv"]) == 0
    design = lag_embed(SeriesTable(y, x, ["x"]), 2, [RollingSpec("mean", 4)])
    pred = tmp_path / "row.csv"
    assert run(["predict", "--model", out, "--input", data, "--row", -1,
                "-o", pred]) == 0
    want = estimator.predict_density_batch(model, design.u[-1:]).density[0]
    assert [float(r[1]) for r in read_rows(pred)[1:]] == want.tolist()
    assert run(["predict", "--model", out, "--input", data,
                "-o", tmp_path / "next.csv"]) == 0


def test_a_contemporaneous_exog_model_does_not_forecast(tmp_path, capsys):
    data = tmp_path / "exog.csv"
    x = np.random.default_rng(1).normal(size=300)
    cli.write_csv(data, ["y", "x"], list(zip(generate("ar", 300, 2), x)))
    model = fit(tmp_path, data, extra=("--exog", "x", "--exog-contemporaneous"))
    out = tmp_path / "next.csv"
    # the next step's covariates would hold x at that step, not yet observed
    code, _, err = run(["predict", "--model", model, "--input", data, "-o", out],
                       capsys)
    assert code == 3
    assert err == ("flexts: error: data: contemporaneous exogenous covariates are "
                   "unobserved at the forecast step; refit with lagged timing to "
                   "forecast\n")
    assert not out.exists()
    assert run(["predict", "--model", model, "--input", data, "--row", -1,
                "-o", out]) == 0


def test_fit_rejects_the_target_as_an_exogenous_column(tmp_path, capsys):
    data = tmp_path / "exog.csv"
    x = np.random.default_rng(0).normal(size=300)
    cli.write_csv(data, ["y", "x"], list(zip(generate("ar", 300, 2), x)))
    # with contemporaneous timing the design would hold y_t as a covariate of y_t
    for exog in (["--exog", "y"], ["--exog", "x", "--exog", "x"]):
        code, _, err = run(["fit", "--input", data, *exog, "--exog-contemporaneous",
                            "-o", tmp_path / "m.json"], capsys)
        assert code == 2, exog
    # a model file whose feature spec does so is malformed data
    doc = json.loads(fit(tmp_path, data, extra=("--exog", "x")).read_text())
    doc["model"]["features"]["exog"] = ["y"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(["evaluate", "--model", bad, "--input", data,
                        "-o", tmp_path / "eval.csv"], capsys)
    assert code == 3
    assert "'y' is the target" in err


def test_fit_bad_rolling_spec(tmp_path):
    data = simulate(tmp_path)
    assert run(["fit", "--input", data, "--rolling", "mean", "-o",
                tmp_path / "m.json"]) == 2


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


@pytest.fixture()
def fitted_trio(tmp_path):
    data = simulate(tmp_path, n=500)
    models = {m: fit(tmp_path, data, method=m) for m in
              ("flexcode", "nnkcde", "garch")}
    return data, models


def test_evaluate_one_row_per_method(tmp_path, fitted_trio):
    data, models = fitted_trio
    out = tmp_path / "eval.csv"
    argv = ["evaluate", "--input", data, "-o", out,
            "--oracle-scenario", "ar", "--log-pinball"]
    for path in models.values():
        argv += ["--model", path]
    assert run(argv) == 0
    rows = read_rows(out)
    header, body = rows[0], rows[1:]
    assert header[:6] == ["model", "method", "n_test", "n_outside_grid",
                          "cde_loss", "cde_loss_se"]
    assert header[6:8] == ["oracle_cde_loss", "oracle_cde_loss_se"]
    assert "pinball_0.05" in header and "pinball_0.95" in header
    assert "log_pinball_0.5" in header
    assert [r[1] for r in body] == ["flexcode", "nnkcde", "garch"]
    assert len({r[2] for r in body}) == 1  # same test rows for every method
    for r in body:
        assert np.isfinite(float(r[4]))
        assert np.isfinite(float(r[6]))


def test_evaluate_checks_the_oracle_sigma_nm(tmp_path, capsys):
    data = simulate(tmp_path, name="nonlinear_mean", n=600)
    model = fit(tmp_path, data, extra=("--backend", "knn"))
    out = tmp_path / "e.csv"
    argv = ["evaluate", "--input", data, "--model", model,
            "--oracle-scenario", "nonlinear_mean", "-o", out]
    for sigma_nm in ("0", "nan", "-0.5"):
        code, _, err = run([*argv, "--sigma-nm", sigma_nm], capsys)
        assert code == 2, sigma_nm
        assert "sigma_nm must be positive and finite" in err
        assert not out.exists()
    assert run([*argv, "--sigma-nm", "0.5"]) == 0
    assert np.isfinite(float(read_rows(out)[1][6]))


def test_evaluate_quantile_levels_validated(tmp_path, fitted_trio):
    data, models = fitted_trio
    code = run(["evaluate", "--input", data, "--model", models["flexcode"],
                "--quantiles", "0.0,0.5", "-o", tmp_path / "e.csv"])
    assert code == 2


def test_an_empty_comma_list_is_a_usage_error(tmp_path, capsys, fitted_trio):
    data, models = fitted_trio
    out = tmp_path / "out.csv"
    argvs = {"--quantiles": ["evaluate", "--input", data, "--model",
                             models["flexcode"]],
             "--taus": ["predict", "--input", data, "--model", models["nnkcde"]],
             "--u": ["predict", "--model", models["flexcode"]],
             "--split": ["fit", "--input", data]}
    argvs.update((flag, ["bench"]) for flag in ("--scenarios", "--sizes",
                                                 "--methods", "--seeds", "--lags"))
    # a list with an empty entry among its values is as much an error
    with_a_gap = {"--quantiles": "0.5,,", "--taus": "0.1,,0.5", "--u": "0.1,,0.2",
                  "--split": "0.7,,0.2,0.1", "--scenarios": "ar,,ar",
                  "--sizes": "300,,400", "--methods": ",flexcode",
                  "--seeds": "0, ,1", "--lags": "3,"}
    for flag, argv in argvs.items():
        for value in ("", ","):
            code, _, err = run([*argv, flag, value, "-o", out], capsys)
            assert code == 2, (flag, value)
            assert f"{flag} lists no values" in err
        code, _, err = run([*argv, flag, with_a_gap[flag], "-o", out], capsys)
        assert code == 2, flag
        assert f"{flag} has an empty entry in {with_a_gap[flag]!r}" in err
    assert not out.exists()


def test_an_unreadable_list_entry_names_its_flag(tmp_path, capsys, fitted_trio):
    data, models = fitted_trio
    out = tmp_path / "out.csv"
    for argv, message in [
            (["predict", "--model", models["flexcode"], "--u", "0.1,x,0.2"],
             "--u: could not convert string to float: 'x'"),
            (["predict", "--input", data, "--model", models["flexcode"],
              "--taus", "0.5,1.5"], "--taus: quantile level 1.5 outside (0, 1)"),
            (["bench", "--sizes", "300,4e2"],
             "--sizes: invalid literal for int() with base 10: '4e2'"),
            (["bench", "--seeds", "0-x"],
             "--seeds: invalid literal for int() with base 10: 'x'")]:
        code, _, err = run([*argv, "-o", out], capsys)
        assert code == 2, argv
        assert message in err
    assert not out.exists()


def test_a_repeated_quantile_level_is_a_usage_error(tmp_path, capsys, fitted_trio):
    # a repeat would write two pinball_0.5 columns, or the 0.5 row twice
    data, models = fitted_trio
    capsys.readouterr()
    out = tmp_path / "out.csv"
    for argv, message in [
            (["evaluate", "--input", data, "--model", models["flexcode"],
              "--quantiles", "0.5,0.9,0.50"], "--quantiles repeats 0.5"),
            (["predict", "--input", data, "--model", models["nnkcde"],
              "--taus", "0.1,0.1"], "--taus repeats 0.1")]:
        code, stdout, err = run([*argv, "-o", out], capsys)
        assert (code, stdout) == (2, ""), argv
        assert message in err
    assert not out.exists()


def test_a_repeated_model_is_a_usage_error_before_any_load(tmp_path, capsys,
                                                           monkeypatch):
    # a repeat would write the same model's row twice
    data = simulate(tmp_path, n=300)
    model = str(fit(tmp_path, data))
    capsys.readouterr()
    loads, load_model = [], cli.persistence.load_model
    monkeypatch.setattr(cli.persistence, "load_model",
                        lambda path: loads.append(path) or load_model(path))
    out = tmp_path / "eval.csv"
    code, stdout, err = run(["evaluate", "--input", data, "--model", model,
                             "--model", model, "-o", out], capsys)
    assert (code, stdout, loads) == (2, "", [])
    assert f"--model repeats {model!r}" in err
    assert not out.exists()


def test_an_unwritable_output_is_a_data_error(tmp_path, capsys):
    data = simulate(tmp_path, n=300)
    out = tmp_path / "missing" / "x.json"
    code, _, err = run(["fit", "--input", data, "-o", out], capsys)
    assert code == 3
    assert f"cannot write {out}: No such file or directory" in err
    code, _, err = run(["simulate", "--scenario", "ar", "--n", 100, "-o", ""],
                       capsys)
    assert code == 3
    assert "cannot write : No such file or directory" in err


def test_evaluate_custom_quantiles(tmp_path, fitted_trio):
    data, models = fitted_trio
    out = tmp_path / "e.csv"
    assert run(["evaluate", "--input", data, "--model", models["flexcode"],
                "--quantiles", "0.5", "-o", out]) == 0
    header = read_rows(out)[0]
    assert header[-1] == "pinball_0.5"


def test_a_model_without_a_feature_spec_reads_no_series(tmp_path, fitted_trio,
                                                         capsys):
    data, models = fitted_trio
    doc = json.loads(models["nnkcde"].read_text())
    doc["model"]["features"] = None  # as the library's nnkcde_fit leaves it
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["evaluate", "--model", path, "-o", tmp_path / "e.csv"],
                 ["predict", "--model", path, "-o", tmp_path / "p.csv"]):
        code, _, err = run([*argv, "--input", data], capsys)
        assert code == 3, argv[0]
        assert "no feature spec" in err


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_density_from_covariates(tmp_path, fitted_trio, monkeypatch):
    _, models = fitted_trio
    out = tmp_path / "dens.csv"
    calls = []
    tabulate = estimator.density_rows
    monkeypatch.setattr(estimator, "density_rows",
                        lambda *args: calls.append(1) or tabulate(*args))
    assert run(["predict", "--model", models["flexcode"], "--u", "0.1,0.2,0.0",
                "-o", out]) == 0
    assert len(calls) == 1  # the density and its raw expansion from one batch
    rows = read_rows(out)
    assert rows[0] == ["y", "density", "raw_density"]
    grid = np.array([float(r[0]) for r in rows[1:]])
    dens = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(dens >= 0.0)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-8)


def test_predict_reads_a_negative_first_covariate_after_an_equals_sign(
        tmp_path, fitted_trio, capsys):
    _, models = fitted_trio
    out, want = tmp_path / "dens.csv", tmp_path / "want.csv"
    assert run(["predict", "--model", models["flexcode"], "--u=-0.5,0.1,0.2",
                "-o", out]) == 0
    est = estimator.predict_density(load_model(models["flexcode"])[1],
                                    np.array([-0.5, 0.1, 0.2]))
    cli.write_csv(want, ["y", "density", "raw_density"],
                  list(zip(est.grid_y, est.density, est.raw_density)))
    assert out.read_bytes() == want.read_bytes()


def test_predict_quantiles_monotone(tmp_path, fitted_trio):
    _, models = fitted_trio
    out = tmp_path / "q.csv"
    assert run(["predict", "--model", models["flexcode"], "--u", "0,0,0",
                "--taus", "0.1,0.5,0.9", "-o", out]) == 0
    rows = read_rows(out)
    assert rows[0] == ["tau", "quantile"]
    q = [float(r[1]) for r in rows[1:]]
    assert q == sorted(q)


def test_predict_one_step_ahead_each_method(tmp_path, fitted_trio):
    data, models = fitted_trio
    for name, model in models.items():
        out = tmp_path / f"next_{name}.csv"
        assert run(["predict", "--model", model, "--input", data,
                    "-o", out]) == 0
        rows = read_rows(out)
        assert rows[0][:2] == ["y", "density"]


def test_predict_historic_row_and_bad_row(tmp_path, fitted_trio):
    data, models = fitted_trio
    out = tmp_path / "r.csv"
    assert run(["predict", "--model", models["garch"], "--input", data,
                "--row", -1, "-o", out]) == 0
    assert run(["predict", "--model", models["garch"], "--input", data,
                "--row", 10**6, "-o", out]) == 3


def test_predict_argument_errors(tmp_path, fitted_trio):
    data, models = fitted_trio
    out = tmp_path / "x.csv"
    assert run(["predict", "--model", models["flexcode"], "-o", out]) == 2
    assert run(["predict", "--model", models["garch"], "--u", "0,0,0",
                "-o", out]) == 2
    assert run(["predict", "--model", models["flexcode"], "--u", "0,0",
                "-o", out]) == 3
    # --u and --input are exclusive, and --row picks a row of --input
    for method in ("flexcode", "garch"):
        assert run(["predict", "--model", models[method], "--u", "0.1,0.2,0.0",
                    "--input", data, "--row", 3, "-o", out]) == 2
        assert run(["predict", "--model", models[method], "--u", "0.1,0.2,0.0",
                    "--input", data, "-o", out]) == 2
    assert run(["predict", "--model", models["flexcode"], "--u", "0.1,0.2,0.0",
                "--row", 3, "-o", out]) == 2


def test_retired_format_versions_are_data_errors(tmp_path, capsys):
    path = tmp_path / "old.json"
    for version in (1, 2, 3):
        path.write_text(json.dumps({"format_version": version, "method": "flexcode",
                                    "metadata": {}, "model": {}}))
        code, _, err = run(["predict", "--model", path, "--u", "0,0,0",
                            "-o", tmp_path / "p.csv"], capsys)
        assert code == 3, version
        assert (f"format_version {version}; this build reads version 4 only; "
                "load the file and save it again with flexts at commit e3707ce"
                ) in err


def test_missing_or_malformed_model_files_are_data_errors(tmp_path, capsys):
    data = simulate(tmp_path, n=300)
    model = fit(tmp_path, data, method="nnkcde")
    out = tmp_path / "x.csv"
    code, _, err = run(["predict", "--model", tmp_path / "missing.json",
                        "--u", "0,0,0", "-o", out], capsys)
    assert code == 3
    assert "cannot open" in err
    doc = json.loads(model.read_text())
    knn = fit(tmp_path, data, fname="knn.json", extra=("--backend", "knn"))
    knn_doc = json.loads(knn.read_text())
    n_knn = len(knn_doc["model"]["backend"]["train_u"])
    nw_doc = json.loads(fit(tmp_path, data, fname="nw.json").read_text())
    lasso = fit(tmp_path, data, fname="lasso.json", extra=("--backend", "lasso"))
    lasso_doc = json.loads(lasso.read_text())
    garch_doc = json.loads(fit(tmp_path, data, method="garch").read_text())
    bad = tmp_path / "bad.json"

    def with_nan(rows):
        rows = copy.deepcopy(rows)
        if isinstance(rows[0], list):
            rows[0][0] = float("nan")
        else:
            rows[0] = float("nan")
        return rows

    for base, owner, name, value in [
        # training arrays are checked when the model is built, at load
        (knn_doc, ("model", "backend"), "train_u",
         with_nan(knn_doc["model"]["backend"]["train_u"])),
        (doc, ("model",), "train_u", with_nan(doc["model"]["train_u"])),
        (doc, ("model",), "train_y", with_nan(doc["model"]["train_y"])),
        (doc, ("model",), "h", 0.0),  # every density would be uniform
        (doc, ("model",), "h", -0.5),
        # the response range: reversed, empty or not finite
        (doc, ("model",), "lo", doc["model"]["hi"] + 1.0),
        (doc, ("model",), "hi", doc["model"]["lo"]),  # every density inf
        (doc, ("model",), "hi", float("nan")),
        (garch_doc, ("model",), "lo", garch_doc["model"]["hi"] + 1.0),
        (knn_doc, ("model",), "i_selected", knn_doc["model"]["i_max"] + 1),
        (doc, ("model",), "k", "abc"),
        (doc, ("model",), "k", 2.5),  # int() would truncate these two
        (doc, ("model",), "grid_size", 201.9),
        (doc, ("model",), "k", 0),
        (knn_doc, ("model", "backend"), "k", n_knn + 1),
        (nw_doc, ("model", "backend"), "delta", -1.0),
        # the responses the basis rows are rebuilt from
        (nw_doc, ("model",), "train_z", with_nan(nw_doc["model"]["train_z"])),
        (nw_doc, ("model",), "train_z", [1.5] + nw_doc["model"]["train_z"][1:]),
        (nw_doc, ("model",), "train_z", nw_doc["model"]["train_z"][1:]),
        (nw_doc, ("model",), "train_z", None),  # and no basis rows either
        (knn_doc, ("model",), "train_z", "abc"),
        (nw_doc, ("model", "backend"), "delta", float("nan")),
        (knn_doc, ("model",), "grid_size", 5),  # breaks the fit's odd, >= 101 rule
        (doc, ("model",), "grid_size", 3),
        (knn_doc, ("model",), "basis", None),  # not the string "None"
        (knn_doc, ("model",), "basis", "sine"),
        # the feature spec and the split
        (doc, ("model", "features"), "n_lags", "x"),
        (doc, ("model",), "split", [0.5]),  # not taken as the default split
        (doc, ("model", "split"), "train_frac", 0.5),  # fractions sum to 0.8
        (doc, ("model", "split"), "test_frac", float("nan")),
        (doc, ("model", "features"), "n_lags", 0),
        (doc, ("model", "features"), "rolling", [["mean", 3]]),
        (doc, ("model", "features"), "rolling", [{"stat": "median", "window": 3}]),
        (doc, ("model", "features"), "rolling", [{"stat": "mean", "window": 0}]),
        (doc, ("model", "features"), "rolling", [{"stat": "mean", "window": 2.5}]),
        (doc, ("model", "features"), "exog", "x"),
        (doc, ("model", "features"), "exog_contemporaneous", "false"),
        # a spec that builds another number of covariates than the model reads
        (doc, ("model", "features"), "n_lags", 2),
        (nw_doc, ("model", "features"), "n_lags", 2),
        # a lasso backend's arrays and penalty
        (lasso_doc, ("model", "backend"), "intercept", None),
        (lasso_doc, ("model", "backend"), "coef", None),
        (lasso_doc, ("model", "backend"), "coef",
         with_nan(lasso_doc["model"]["backend"]["coef"])),
        (lasso_doc, ("model", "backend"), "lam", float("inf")),
        # a GARCH model's parameters
        (garch_doc, ("model",), "ar", 0.5),
        (garch_doc, ("model",), "ar", [None]),
        (garch_doc, ("model",), "ar", [float("nan")]),
        (garch_doc, ("model",), "omega", float("nan")),
        # ... and the fit's domain, where every conditional variance is positive
        (garch_doc, ("model",), "omega", -1.0),
        (garch_doc, ("model",), "alpha", -0.5),
        (garch_doc, ("model",), "beta", 1.5),
        (garch_doc, ("model",), "s2_init", -1.0),
        ({**garch_doc, "model": {**garch_doc["model"], "beta": 0.6}}, ("model",),
         "alpha", 0.6),
        # the backend's widths: covariates and coefficients 0..i_max
        (lasso_doc, ("model",), "i_max", lasso_doc["model"]["i_max"] + 10),
        (lasso_doc, ("model",), "feature_names", ["lag1", "lag2"]),
        (knn_doc, ("model", "backend"), "train_u",
         [row[:2] for row in knn_doc["model"]["backend"]["train_u"]]),
        # a GARCH model filters the rows of a design of its AR order's lags alone
        (garch_doc, ("model", "features"), "n_lags", 5),
        (garch_doc, ("model", "features"), "rolling", [{"stat": "mean", "window": 4}]),
        # the size ceilings
        (doc, ("model",), "grid_size", MAX_GRID_SIZE + 2),
        (nw_doc, ("model",), "i_max", MAX_I_MAX + 1),
    ]:
        edited = copy.deepcopy(base)
        target = edited
        for key in owner:
            target = target[key]
        target[name] = value
        bad.write_text(json.dumps(edited))
        code, _, err = run(["predict", "--model", bad, "--u", "0,0,0", "-o", out],
                           capsys)
        assert code == 3, (name, value)
        assert "malformed" in err


def test_a_model_file_must_agree_with_its_backend_and_feature_spec(tmp_path, capsys):
    data = simulate(tmp_path, n=300)
    lasso = json.loads(fit(tmp_path, data, extra=("--backend", "lasso")).read_text())
    garch = json.loads(fit(tmp_path, data, method="garch").read_text())
    spec = garch["model"]["features"]  # 3 lags, an AR(3) mean
    bad, out = tmp_path / "bad.json", tmp_path / "out.csv"
    evaluate = ["evaluate", "--input", data]
    forecast_row = ["predict", "--input", data, "--row", -1]
    for base, edits, command in [
        # 31 lasso coefficients of 3 covariates: not i_max=40, nor 2 features
        (lasso, {"i_max": 40, "i_selected": 35}, ["predict", "--u", "0,0,0"]),
        (lasso, {"feature_names": ["lag1", "lag2"]}, ["predict", "--u", "0,0"]),
        (garch, {"features": {**spec, "n_lags": 5}}, evaluate),
        (garch, {"features": {**spec, "n_lags": 5}}, forecast_row),
        (garch, {"features": {**spec, "rolling": [{"stat": "mean", "window": 4}]}},
         evaluate),
        (garch, {"features": {**spec, "rolling": [{"stat": "mean", "window": 4}]}},
         forecast_row),
    ]:
        bad.write_text(json.dumps({**base, "model": {**base["model"], **edits}}))
        code, _, err = run([command[0], "--model", bad, *command[1:], "-o", out],
                           capsys)
        assert code == 3, (edits, command[0])
        assert "malformed" in err
    assert not out.exists()


# runs the CLI once per argument list given as JSON, in 3 GB of address space,
# and prints the exit codes to stderr; an allocation it misses is a MemoryError
LIMITED_CLI = (
    "import json, resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
    "from flexts import cli\n"
    "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
    "print(json.dumps(codes), file=sys.stderr)\n"
)


def test_sizes_beyond_the_ceilings_fail_before_any_allocation(tmp_path):
    data = simulate(tmp_path, n=300)
    huge_grid, huge_i_max = 1_000_000_001, 10**9  # 7.45 GiB and 3.05 TiB
    argvs = []
    for backend, name, value in [("lasso", "grid_size", huge_grid),
                                 ("nw", "i_max", huge_i_max)]:
        path = fit(tmp_path, data, extra=("--backend", backend))
        doc = json.loads(path.read_text())
        doc["model"][name] = value
        path.write_text(json.dumps(doc))
        argvs.append(["predict", "--model", path, "--u", "0,0,0",
                      "-o", tmp_path / "p.csv"])
    argvs += [["fit", "--input", data, flag, value, "-o", tmp_path / "m.json"]
              for flag, value in (("--grid-size", huge_grid), ("--i-max", huge_i_max))]
    for name, value in (("grid_size", huge_grid), ("i_max", huge_i_max)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"sizes": [300], name: value}))
        argvs.append(["bench", "--config", cfg, "-o", tmp_path / "b.csv"])
    done = run_python(LIMITED_CLI, json.dumps([[str(a) for a in argv]
                                               for argv in argvs]))
    # two malformed model files, then four usage errors
    assert json.loads(done.stderr.splitlines()[-1]) == [3, 3, 2, 2, 2, 2]


def test_predict_rejects_quantile_levels_outside_unit_interval(tmp_path,
                                                               fitted_trio):
    data, models = fitted_trio
    for name, model in models.items():
        code = run(["predict", "--model", model, "--input", data,
                    "--taus", "1.5,0.5", "-o", tmp_path / f"q_{name}.csv"])
        assert code == 2, name


def test_predict_rejects_non_finite_covariates(tmp_path, fitted_trio, capsys):
    _, models = fitted_trio
    for name in ("flexcode", "nnkcde"):
        code, _, err = run(["predict", "--model", models[name], "--u", "nan,0,0",
                            "-o", tmp_path / "x.csv"], capsys)
        assert code == 3, name
        assert "non-finite" in err


def test_baselines_are_scored_on_their_fit_time_grid(tmp_path):
    data = simulate(tmp_path, n=500)
    grid_flags = ("--pad", "0.3", "--grid-size", "501")
    columns = {}
    for method in ("nnkcde", "garch"):
        model = fit(tmp_path, data, method=method, extra=grid_flags)
        assert load_model(model)[1].grid_size == 501
        out = tmp_path / f"row_{method}.csv"
        assert run(["predict", "--model", model, "--input", data,
                    "--row", -1, "-o", out]) == 0
        columns[method] = [r[0] for r in read_rows(out)[1:]]
    assert len(columns["garch"]) == 501
    assert columns["garch"] == columns["nnkcde"]


def test_row_state_tabulates_like_the_per_grid_calls(tmp_path, fitted_trio):
    data, models = fitted_trio
    for method, path in models.items():
        _, model, _ = load_model(path)
        table, design = cli._read_design(model.features, data)
        _, _, te = temporal_split(design.n_rows, model.split)
        rows = slice(te.start, te.stop)
        state = model.row_state(design.u[rows], table.response, rows)
        grid_y = model.grid()
        fine = np.linspace(grid_y[0], grid_y[-1], 2001)
        for grid in (grid_y, fine):
            got = estimator.density_rows(model, state, grid).density
            if method == "garch":
                means, s2 = baselines.garch_filter(model, table.response)
                want = baselines.garch_density_rows(means[rows], s2[rows], grid)
            else:
                regridded = dataclasses.replace(model, grid_size=grid.size)
                assert np.array_equal(regridded.grid(), grid)
                want = estimator.predict_density_batch(regridded, design.u[rows])
            assert np.array_equal(got, want.density), method


def test_every_method_tabulates_one_density_batch(tmp_path, fitted_trio):
    data, models = fitted_trio
    for method, path in models.items():
        _, model, _ = load_model(path)
        table, design = cli._read_design(model.features, data)
        _, _, te = temporal_split(design.n_rows, model.split)
        for rows in (slice(te.start, te.stop), slice(design.n_rows - 1, None)):
            state = model.row_state(design.u[rows], table.response, rows)
            batch = estimator.density_rows(model, state, model.grid())
            density, degenerate = estimator.renormalize_rows(
                np.maximum(batch.raw_density, 0.0), batch.grid_y)
            assert density.tobytes() == batch.density.tobytes(), method
            assert np.array_equal(degenerate, batch.degenerate), method
        # predict writes the last row's batch, and without --row the forecast
        # step's: the density and its raw form
        forecast = estimator.predict_density_batch(model, design.next_u,
                                                   table.response, None)
        for flags, want in ((["--row", -1], batch), ([], forecast)):
            out = tmp_path / f"row_{method}.csv"
            assert run(["predict", "--model", path, "--input", data, *flags,
                        "-o", out]) == 0
            written = read_rows(out)
            assert written[0] == ["y", "density", "raw_density"], method
            for j, column in enumerate((want.grid_y, want.density[0],
                                        want.raw_density[0])):
                assert [float(r[j]) for r in written[1:]] == column.tolist(), method


# usage errors of one method's fit: a NaN penalty, a grid flag it does not read
FIT_USAGE_ERRORS = {
    "flexcode": [(("--backend", "lasso", "--lam", "nan"), "lam must be nonnegative"),
                 (("--backend", "lasso", "--lam", "inf"), "lam must be nonnegative"),
                 (("--backend", "knn", "--delta", 0.5), "--delta is not a grid"),
                 (("--select-postprocessed",), "unrecognized arguments"),
                 (("--delta", ""), "--delta lists no values"),
                 (("--delta", "0.1,,0.2"), "--delta has an empty entry"),
                 (("--backend", "knn", "--k", "5,2.5"),
                  "--k: invalid literal for int() with base 10: '2.5'"),
                 (("--backend", "knn", "--k", ""), "--k lists no values"),
                 (("--backend", "lasso", "--lam", ","), "--lam lists no values")],
    "nnkcde": [(("--lam", 0.1), "is not a grid of this fit (its grids: --k, --h)"),
               (("--k", ""), "--k lists no values"),
               (("--h", ""), "--h lists no values"),
               (("--k", "5,,7"), "--k has an empty entry")],
    "garch": [(("--k", 5), "--k is not a grid of this fit (its grids: none)"),
              (("--h", ""), "--h is not a grid of this fit (its grids: none)"),
              (("--split", "0.7,,0.2,0.1"), "--split has an empty entry")],
}


@pytest.mark.parametrize("method", ["flexcode", "nnkcde", "garch"])
def test_fit_checks_the_response_grid(tmp_path, capsys, method):
    data = simulate(tmp_path, n=300)
    out = tmp_path / "model.json"
    for flags, message in [(("--grid-size", 4), "grid_size must be odd and >= 101"),
                           (("--grid-size", 1000), "grid_size must be odd"),
                           (("--grid-size", MAX_GRID_SIZE + 2),
                            f"at most {MAX_GRID_SIZE}"),
                           (("--pad", -0.5), "pad must be nonnegative"),
                           (("--pad", "nan"), "pad must be nonnegative"),
                           (("--split", "0.5,0.5,nan"), "must all be positive"),
                           (("--split", "0.5,nan,0.5"), "must all be positive"),
                           *FIT_USAGE_ERRORS[method]]:
        code, _, err = run(["fit", "--input", data, "--method", method, *flags,
                            "-o", out], capsys)
        assert code == 2, flags
        assert message in err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e200, 1e-300])
@pytest.mark.parametrize("method", ["nw", "knn", "lasso", "nnkcde", "garch"])
def test_a_series_at_an_extreme_scale_is_a_data_error(tmp_path, capsys, method,
                                                      scale):
    rows = read_rows(simulate(tmp_path, name="nonlinear_variance", n=2000, seed=0))
    col = rows[0].index("y")
    for row in rows[1:]:
        row[col] = repr(float(row[col]) * scale)
    data = tmp_path / "scaled.csv"
    cli.write_csv(data, rows[0], rows[1:])
    flags = (("--backend", method) if method in regression.BACKENDS
             else ("--method", method))
    out = tmp_path / "model.json"
    code, _, err = run(["fit", "--input", data, *flags, "-o", out], capsys)
    assert code == 3, err
    assert "square or reciprocal square is not a finite nonzero float" in err
    assert not out.exists()


def test_baseline_fits_reject_flexcode_flags(tmp_path, capsys):
    data = simulate(tmp_path, n=300)
    out = tmp_path / "model.json"
    for method in ("nnkcde", "garch"):
        for flags in (("--refit-final",), ("--i-max", 5), ("--basis", "fourier"),
                      ("--backend", "lasso")):
            code, _, err = run(["fit", "--input", data, "--method", method, *flags,
                                "-o", out], capsys)
            assert code == 2, (method, flags)
            assert f"{flags[0]} is a flexcode flag; {method} does not read it" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, field, expected", [
    (("--backend", "nw", "--delta", "0.9,0.3"), "candidate_hypers", [0.9, 0.3]),
    (("--backend", "knn", "--k", "7,3"), "candidate_hypers", [7, 3]),
    (("--backend", "lasso", "--lam", "0.01,0.1"), "candidate_hypers", [0.1, 0.01]),
    (("--method", "nnkcde", "--k", "7"), "k", 7),
    (("--method", "nnkcde", "--h", "0.3"), "h", 0.3),
])
def test_fit_grid_flags_reach_the_fit(tmp_path, flags, field, expected):
    data = simulate(tmp_path, n=300)
    out = tmp_path / "model.json"
    assert run(["fit", "--input", data, *flags, "-o", out]) == 0
    # repr tells a k read as int from a float: [7, 3], not [7.0, 3.0]
    assert repr(json.loads(out.read_text())["model"][field]) == repr(expected)


def test_bench_rejects_descending_ranges(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    for flag in ("--seeds", "--sizes", "--lags"):
        code, _, err = run(["bench", flag, "5-3", "-o", out], capsys)
        assert code == 2, flag
        assert "descending range '5-3'" in err
    assert not out.exists()


def test_bench_lists_hold_values_none_repeated(tmp_path, capsys):
    # flags (after their ranges expand) and config files follow one rule
    out = tmp_path / "bench.csv"
    flag_cases = [(["--scenarios", "ar,ar"], "'scenarios' repeats 'ar'"),
                  (["--sizes", "300,300"], "'sizes' repeats 300"),
                  (["--methods", "garch,flexcode,garch"], "'methods' repeats 'garch'"),
                  (["--seeds", "0-1,1"], "'seeds' repeats 1"),
                  (["--lags", "1-3,2-4"], "'lags' repeats 2")]
    config_cases = [({key: []}, f"'{key}' holds no values")
                    for key in ("scenarios", "sizes", "methods", "seeds", "lags")]
    config_cases.append(({"sizes": [300.0, 300]}, "'sizes' repeats 300"))
    for i, (doc, message) in enumerate(config_cases):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(doc))
        flag_cases.append((["--config", cfg], message))
    for argv, message in flag_cases:
        code, stdout, err = run(["bench", *argv, "-o", out], capsys)
        assert (code, stdout) == (2, ""), argv  # no cell ran
        assert message in err
    assert not out.exists()


def test_bench_cell_computes_test_row_state_once(monkeypatch):
    design = lag_embed(SeriesTable(generate("ar", 300, 0)), 3)
    _, va, te = temporal_split(design.n_rows, SplitSpec())

    predicted = []
    nw_predict = regression.NadarayaWatsonModel.predict

    def counting_predict(self, eval_u):
        predicted.append(np.shape(eval_u)[0])
        return nw_predict(self, eval_u)

    monkeypatch.setattr(regression.NadarayaWatsonModel, "predict",
                        counting_predict)
    row = cli.run_bench_cell(cli.BenchCell("ar", 300, "flexcode", 3, 0))
    assert row["status"] == "ok" and row["oracle_cde_loss"] != ""
    assert predicted == [len(te)]

    distance_rows = []
    pairwise_sq_dists = regression.pairwise_sq_dists

    def counting_dists(a, b, b_norms=None):
        distance_rows.append(np.shape(a)[0])
        return pairwise_sq_dists(a, b, b_norms)

    monkeypatch.setattr(regression, "pairwise_sq_dists", counting_dists)
    row = cli.run_bench_cell(cli.BenchCell("ar", 300, "nnkcde", 3, 0))
    assert row["status"] == "ok" and row["oracle_cde_loss"] != ""
    assert distance_rows == [len(va), len(te)]


# ---------------------------------------------------------------------------
# importance
# ---------------------------------------------------------------------------


def test_importance_table_sorted_descending(tmp_path, capsys):
    data = simulate(tmp_path, n=600)
    model = fit(tmp_path, data, extra=("--backend", "lasso", "--lags", "5"))
    out = tmp_path / "imp.csv"
    assert run(["importance", "--model", model, "-o", out]) == 0
    rows = read_rows(out)
    assert rows[0] == ["feature", "score"]
    assert len(rows) == 6
    scores = [float(r[1]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True)
    assert all(s >= 0.0 for s in scores)


def test_importance_permutation_needs_input(tmp_path):
    data = simulate(tmp_path)
    model = fit(tmp_path, data, extra=("--backend", "nw",))
    out = tmp_path / "imp.csv"
    assert run(["importance", "--model", model, "-o", out]) == 2
    assert run(["importance", "--model", model, "--input", data, "-o", out]) == 0


def test_importance_needs_a_permutation(tmp_path, capsys):
    data = simulate(tmp_path)
    model = fit(tmp_path, data, extra=("--backend", "nw",))
    out = tmp_path / "imp.csv"
    for n in (0, -2):
        code, _, err = run(["importance", "--model", model, "--input", data,
                            "--n-permutations", n, "-o", out], capsys)
        assert code == 2 and "n_permutations must be >= 1" in err
    assert not out.exists()


def test_importance_rejects_non_flexcode_models(tmp_path, fitted_trio):
    _, models = fitted_trio
    out = tmp_path / "imp.csv"
    assert run(["importance", "--model", models["garch"], "-o", out]) == 2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_rerun_is_byte_identical(tmp_path):
    common = ["bench", "--scenarios", "ar", "--sizes", "300", "--methods",
              "flexcode,nnkcde,garch", "--seeds", "0", "--lags", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(common + ["-o", a]) == 0
    assert run(common + ["-o", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert rows[0] == cli.BENCH_COLUMNS
    assert len(rows) == 4
    assert all(r[5] == "ok" for r in rows[1:])
    methods = [r[2] for r in rows[1:]]
    assert methods == sorted(methods)


def test_bench_failed_cells_keep_the_run_alive(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--scenarios", "ar", "--sizes", "150", "--methods",
                "flexcode", "--seeds", "0", "--lags", "3,120", "-o", out]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    by_lags = {r[3]: r[5] for r in rows[1:]}
    assert by_lags["3"] == "ok"
    assert by_lags["120"].startswith("error:")


def test_bench_lag_sweep_and_seed_ranges(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["bench", "--scenarios", "ar", "--sizes", "300", "--methods",
                "flexcode", "--seeds", "0-1", "--lags", "1-3", "-o", out]) == 0
    rows = read_rows(out)[1:]
    assert len(rows) == 6  # 3 lag values x 2 seeds
    assert [r[3] for r in rows] == ["1", "1", "2", "2", "3", "3"]
    # cells with fewer than 3 lags cannot use the scenario oracle
    assert all(r[8] == "" for r in rows if int(r[3]) < 3)
    assert all(r[8] != "" for r in rows if int(r[3]) >= 3)


def test_bench_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenarios": ["ar"], "sizes": [300],
                               "methods": ["flexcode"], "seeds": [0],
                               "output": str(tmp_path / "from_cfg.csv")}))
    out = tmp_path / "cli_wins.csv"
    assert run(["bench", "--config", cfg, "-o", out]) == 0
    assert out.exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": ["ar"]}))  # misspelled key
    assert run(["bench", "--config", bad, "-o", out]) == 2
    missing = tmp_path / "none.json"
    assert run(["bench", "--config", missing, "-o", out]) == 3


def test_bench_config_values_must_have_the_defaults_types(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)  # a bad output name would land here
    out = tmp_path / "bench.csv"
    base = {"scenarios": ["ar"], "sizes": [300], "methods": ["flexcode"],
            "seeds": [0], "output": str(out)}
    cfg = tmp_path / "cfg.json"
    for doc, message in [
        ({**base, "scenarios": "ar"}, "'scenarios' must be a list of str"),
        ({**base, "sizes": 300}, "'sizes' must be a list of int"),
        ({**base, "split": [0.6, 0.2]}, "'split' needs three fractions"),
        ({**base, "split": [0.5, 0.5, float("nan")]}, "must all be positive"),
        ({**base, "i_max": "abc"}, "'i_max' must be int"),
        ({**base, "oracle": "false"}, "'oracle' must be bool"),  # a true string
        ({**base, "output": None}, "'output' must be str"),  # not a file "None"
        ({**base, "sizes": [300.9]}, "'sizes' must be a list of int"),  # not n=300
        ({**base, "backend": "foo"}, "'backend' holds unknown value 'foo'"),
        ({**base, "basis": "bogus"}, "'basis' holds unknown value 'bogus'"),
        ({**base, "scenarios": ["ar", "nope"]}, "'scenarios' holds unknown value"),
        ({**base, "methods": ["flexcode", "arima"]}, "'methods' holds unknown value"),
        ({**base, "sigma_nm": -1}, "sigma_nm must be positive and finite"),
        ({**base, "pad": -1}, "pad must be nonnegative"),
        ({**base, "pad": float("inf"), "methods": ["garch"]},
         "pad must be nonnegative and finite"),
        ({**base, "grid_size": 4}, "grid_size must be odd and >= 101"),
        ({**base, "i_max": 0}, "i_max must be >= 1"),
        ({**base, "grid_size": MAX_GRID_SIZE + 2}, f"at most {MAX_GRID_SIZE}"),
        ({**base, "i_max": MAX_I_MAX + 1}, f"at most {MAX_I_MAX}"),
        # the integers each cell's series and design read, by their own rules
        ({**base, "burn_in": 0}, "burn-in must be >= 100"),
        ({**base, "burn_in": -1}, "burn-in must be >= 100"),
        ({**base, "sizes": [10]}, "scenario length must be >= 100"),
        ({**base, "sizes": [-1]}, "scenario length must be >= 100"),
        ({**base, "seeds": [-1]}, "seed must be a nonnegative integer"),
        ({**base, "lags": [0]}, "n_lags must be >= 1"),
        ({**base, "lags": [-1]}, "n_lags must be >= 1"),
        (5, "bench config must be a JSON object"),
        (None, "bench config must be a JSON object"),
    ]:
        cfg.write_text(json.dumps(doc))
        code, stdout, err = run(["bench", "--config", cfg], capsys)
        assert code == 2, doc
        assert message in err
        assert stdout == ""  # no cell ran
    for flag, value, message in [("--sizes", "10", "scenario length must be >= 100"),
                                 ("--lags", "0", "n_lags must be >= 1")]:
        code, stdout, err = run(["bench", flag, value], capsys)
        assert (code, stdout) == (2, "")
        assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


BENCH_KEYS = [f.name for f in dataclasses.fields(cli.BenchConfig)]
BENCH_LIST_KEYS = [f.name for f in dataclasses.fields(cli.BenchConfig)
                   if typing.get_origin(f.type) is list]
BENCH_ADVERSARIAL = (float("nan"), float("inf"), float("-inf"), 0, -1, 2.5, True,
                     "x", None, [], {})
# each key set to each value, and each list key to a one-element list of it
BENCH_FUZZ_CASES = (
    [(key, value) for key in BENCH_KEYS for value in BENCH_ADVERSARIAL]
    + [(key, [value]) for key in BENCH_LIST_KEYS for value in BENCH_ADVERSARIAL])


def with_every_bench_case(test):
    for key, value in BENCH_FUZZ_CASES:
        test = example(key=key, value=value)(test)
    return test


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@with_every_bench_case
@given(key=st.sampled_from(BENCH_KEYS), value=st.sampled_from(BENCH_ADVERSARIAL))
def test_a_bench_config_with_any_key_changed_fails_first_or_runs_ok(
        tmp_path, monkeypatch, capsys, key, value):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)  # an output name of "x" lands here
    doc = {"scenarios": ["ar"], "sizes": [300], "methods": ["flexcode"],
           "seeds": [0], "lags": [3], "output": "bench.csv", key: value}
    (work / "cfg.json").write_text(json.dumps(doc))
    code, stdout, _ = run(["bench", "--config", work / "cfg.json"], capsys)
    if code == 2:
        assert stdout == "", (key, value)  # no cell ran
        return
    assert code == 0, (key, value)
    rows = read_rows(work / doc["output"])
    status = cli.BENCH_COLUMNS.index("status")
    assert all(row[status] == "ok" for row in rows[1:]), (key, value)


def test_bench_config_of_every_default_matches_no_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    defaults = {
        "scenarios": ["ar"], "sizes": [1000], "methods": ["flexcode"], "seeds": [0],
        "lags": [3], "backend": "nw", "basis": "cosine", "i_max": 30,
        "grid_size": 1001, "pad": 0.05, "split": [0.7, 0.1, 0.2], "burn_in": 200,
        "sigma_nm": 0.5, "oracle": True, "output": "bench_results.csv",
    }
    assert defaults == dataclasses.asdict(cli.BenchConfig())
    written = tmp_path / "bench_results.csv"
    assert run(["bench"]) == 0
    plain = written.read_bytes()
    written.unlink()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(defaults))
    assert run(["bench", "--config", cfg]) == 0
    assert written.read_bytes() == plain


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_console_script_exit_codes(tmp_path):
    launcher = ([shutil.which("flexts")] if shutil.which("flexts")
                else [sys.executable, "-m", "flexts.cli"])
    out = tmp_path / "s.csv"
    ok = subprocess.run(
        [*launcher, "simulate", "--scenario", "ar", "--n", "120",
         "--seed", "1", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0 and out.exists()
    usage = subprocess.run(launcher, capture_output=True, text=True)
    assert usage.returncode == 2


# ---------------------------------------------------------------------------
# cold start: each command loads only the scipy packages its methods use
# ---------------------------------------------------------------------------

GARCH_ONLY_MODULES = ("scipy.optimize", "scipy.signal", "scipy.stats")
# imports the CLI and runs it on its arguments, if any, then prints the exit
# code and every public scipy package the process loaded (scipy itself and
# each scipy.<name> with a name not starting with "_") to stderr
LOADED_PROBE = (
    "import json, sys\n"
    "from flexts import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
    "parts = [m.split('.')[:2] for m in sys.modules]\n"
    "loaded = sorted({'.'.join(p) for p in parts\n"
    "                 if p[0] == 'scipy' and not p[-1].startswith('_')})\n"
    "print(json.dumps([code, loaded]), file=sys.stderr)\n"
)


def run_python(code, *argv):
    """A fresh Python process running ``code`` on this checkout's flexts."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done


def run_fresh(argv=()):
    """(exit code, public scipy packages loaded) of the CLI in a fresh process."""
    done = run_python(LOADED_PROBE, *argv)
    code, loaded = json.loads(done.stderr.splitlines()[-1])
    return code, loaded


def test_importing_the_cli_loads_no_scipy():
    assert run_fresh() == (None, [])


def test_importing_the_cli_starts_no_thread():
    # the fit's row threads start with the first distance block it splits
    done = run_python("import threading\n"
                      "from flexts import cli\n"
                      "print(threading.active_count())")
    assert done.stdout.split() == ["1"]


def test_nw_predict_and_evaluate_load_no_scipy(tmp_path):
    data = simulate(tmp_path, n=400)
    model = fit(tmp_path, data, extra=("--backend", "nw"))
    out = tmp_path / "dens.csv"
    assert run_fresh(["predict", "--model", model, "--u", "0.1,0.2,0.0",
                      "-o", out]) == (0, [])
    assert read_rows(out)[0] == ["y", "density", "raw_density"]
    assert run_fresh(["evaluate", "--input", data, "--model", model,
                      "-o", tmp_path / "e.csv"]) == (0, [])


def test_each_fit_loads_only_its_backends_scipy(tmp_path):
    assert run_fresh(["--help"]) == (0, [])
    # 300 validation rows: at least ROW_BLOCK, so knn queries its k-d tree
    data = tmp_path / "series.csv"
    assert run_fresh(["simulate", "--scenario", "ar", "--n", 3000, "--seed", 7,
                      "-o", data]) == (0, [])
    out = tmp_path / "model.json"
    argv = ["fit", "--input", data, "-o", out]
    assert run_fresh([*argv, "--backend", "lasso"]) == (0, [])
    code, loaded = run_fresh([*argv, "--backend", "nw"])
    assert code == 0 and "scipy.sparse" in loaded and "scipy.spatial" not in loaded
    code, loaded = run_fresh([*argv, "--backend", "knn"])
    assert code == 0 and "scipy.spatial" in loaded
    assert not set(GARCH_ONLY_MODULES) & set(loaded)
    # the probe does see a GARCH fit load them
    code, loaded = run_fresh([*argv, "--method", "garch"])
    assert code == 0 and set(GARCH_ONLY_MODULES) <= set(loaded)
