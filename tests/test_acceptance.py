"""End-to-end acceptance checks, one numbered criterion per test.

Each test computes its statistic(s), then records a single
``ACCEPTANCE n: <label>: PASS|FAIL`` verdict through the ``acceptance``
fixture (echoed in the terminal summary by conftest). Wall-clock budgets
are part of each criterion. Seeds are fixed; medians over ten seeds are
used wherever a criterion is statistical.
"""

import time
import warnings

import numpy as np
from scipy import stats

from flexts import baselines, estimator, scenarios
from flexts.basis import basis_matrix, fit_scaler
from flexts.cli import BenchCell, main as cli_main, run_bench_cell
from flexts.evaluation import cde_loss_from_coeffs
from flexts.features import SeriesTable, lag_embed
from flexts.persistence import load_model, save_model

SEEDS = range(10)


def bench_median(scenario, n, method, lags, key, backend="nw", i_max=30):
    """Median of one bench metric over the frozen seed set."""
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for seed in SEEDS:
            cell = BenchCell(scenario, n, method, lags, seed)
            values.append(
                run_bench_cell(cell, backend=backend, i_max=i_max)[key])
    return float(np.median(values))


def test_criterion_1_orthonormality_and_parseval(acceptance):
    start = time.perf_counter()
    z = np.linspace(0.0, 1.0, 4001)
    gram_ok = True
    for kind in ("cosine", "fourier"):
        phi = basis_matrix(kind, z, 30)
        gram = np.trapezoid(phi[:, :, None] * phi[:, None, :], z, axis=0)
        gram_ok &= np.abs(gram - np.eye(31)).max() < 1e-6

    rng = np.random.default_rng(11)
    b = rng.normal(scale=0.5, size=(50, 9))
    b[:, 0] = 1.0
    eval_z = rng.uniform(0.0, 1.0, size=50)
    coeff_loss = cde_loss_from_coeffs(b, eval_z, 8).loss
    fhat_rows = b @ basis_matrix("cosine", z, 8).T
    sq = np.trapezoid(fhat_rows * fhat_rows, z, axis=1)
    cross = (b * basis_matrix("cosine", eval_z, 8)).sum(axis=1)
    quad_loss = float(np.mean(sq - 2.0 * cross))
    parseval_ok = abs(coeff_loss - quad_loss) < 1e-10

    elapsed = time.perf_counter() - start
    acceptance(1, "orthonormality and coefficient-form loss",
               gram_ok and parseval_ok and elapsed < 10.0)


def test_criterion_2_loss_estimator_consistency(acceptance):
    start = time.perf_counter()
    c = 0.7
    true_loss = c * c          # integral of (fhat - f)^2 with f = 1 on [0, 1]
    offset = 1.0               # integral of f^2, the loss's unknown constant
    rng = np.random.default_rng(0)
    ok, prev_err = True, np.inf
    for n in (100, 1000, 10000):
        z = rng.uniform(0.0, 1.0, size=n)
        b = np.tile([1.0, c], (n, 1))
        report = cde_loss_from_coeffs(b, z, 1)
        err = abs(report.loss + offset - true_loss)
        ok &= err < 3.0 * report.std_error and err < prev_err
        prev_err = err
    elapsed = time.perf_counter() - start
    acceptance(2, "empirical loss tracks the oracle loss", ok and elapsed < 60.0)


def test_criterion_3_oracle_loss_decreases_with_n(acceptance):
    start = time.perf_counter()
    meds = [bench_median("nonlinear_variance", n, "flexcode", 3,
                         "oracle_cde_loss") for n in (1000, 2500, 5000)]
    print(f"nonlinear_variance oracle loss medians: {meds}")
    elapsed = time.perf_counter() - start
    acceptance(3, "oracle loss shrinks with sample size",
               meds[0] > meds[1] > meds[2] and elapsed < 600.0)


def test_criterion_4_method_ranking(acceptance):
    # The kNN backend with a raised cutoff ceiling is the estimator's
    # strongest configuration here: the nonlinear_variance conditional
    # density (sd 0.1 on a roughly +/-4 range) needs more than 30 basis
    # terms to resolve, and cutoff selection still happens on the
    # validation split.
    start = time.perf_counter()
    med = {
        (scen, method): bench_median(scen, 5000, method, 3, "cde_loss",
                                     backend="knn", i_max=60)
        for scen in ("nonlinear_mean", "nonlinear_variance", "ar")
        for method in ("flexcode", "nnkcde", "garch")
    }
    for scen in ("nonlinear_mean", "nonlinear_variance", "ar"):
        print(f"{scen}: " + "  ".join(
            f"{m}={med[scen, m]:.4f}" for m in ("flexcode", "nnkcde", "garch")))
    ok = True
    for scen in ("nonlinear_mean", "nonlinear_variance"):
        ok &= med[scen, "flexcode"] < med[scen, "nnkcde"]
        ok &= med[scen, "flexcode"] < med[scen, "garch"]
    ok &= med["ar", "garch"] <= med["ar", "flexcode"]
    ok &= med["ar", "flexcode"] < med["ar", "nnkcde"]
    ok &= med["ar", "garch"] < med["ar", "nnkcde"]
    elapsed = time.perf_counter() - start
    acceptance(4, "ranking against the baselines", ok and elapsed < 1800.0)


def test_criterion_5_lag_robustness(acceptance):
    start = time.perf_counter()
    med = {
        (method, p): bench_median("ar", 2500, method, p,
                                  "oracle_cde_loss", backend="lasso")
        for method in ("flexcode", "nnkcde")
        for p in (3, 10, 20, 50)
    }
    flex_ratio = med["flexcode", 50] / med["flexcode", 3]
    nn_ratio = med["nnkcde", 50] / med["nnkcde", 3]
    print(f"oracle-loss ratio p=50 vs p=3: flexcode={flex_ratio:.3f} "
          f"nnkcde={nn_ratio:.3f}")
    elapsed = time.perf_counter() - start
    acceptance(5, "irrelevant lags do not degrade the fit",
               flex_ratio <= 1.3 and nn_ratio >= 1.3 and elapsed < 1200.0)


def test_criterion_6_importance_concentrates_on_true_lags(acceptance):
    start = time.perf_counter()
    shares = []
    for seed in SEEDS:
        y = scenarios.generate("ar", 5000, seed)
        design = lag_embed(SeriesTable(y), 10)
        model = estimator.fit(
            design, config=estimator.FitConfig(backend="lasso"))
        scores = estimator.importance(model)
        shares.append(scores[:3].sum() / scores.sum())
    share = float(np.median(shares))
    print(f"median importance share of lags 1-3: {share:.4f}")
    elapsed = time.perf_counter() - start
    acceptance(6, "importance concentrates on the true lags",
               share >= 0.8 and elapsed < 300.0)


def test_criterion_7_density_contracts(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    per_scenario = 200
    ok, n_calls = True, 0
    for name in scenarios.SCENARIO_NAMES:
        y = scenarios.generate(name, 600, 1)
        design = lag_embed(SeriesTable(y), 3)
        model = estimator.fit(design)
        base = design.u[rng.integers(0, design.n_rows, size=per_scenario)]
        u = base + rng.normal(scale=0.1, size=base.shape)
        for row in u:
            result = estimator.predict_density(model, row)
            ok &= bool(np.all(result.density >= 0.0))
            mass = np.trapezoid(result.density, result.grid_y)
            ok &= abs(mass - 1.0) < 1e-8
            n_calls += 1
        taus = np.linspace(0.05, 0.95, 19)
        q = estimator.predict_quantiles(model, u, taus)
        ok &= bool(np.all(np.diff(q, axis=1) >= 0.0))
    elapsed = time.perf_counter() - start
    acceptance(7, "densities are nonnegative, normalized, monotone quantiles",
               ok and n_calls == 1000 and elapsed < 60.0)


def test_criterion_8_baseline_sanity(acceptance):
    start = time.perf_counter()
    sigma2 = 1.69
    estimates = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        y = rng.normal(scale=np.sqrt(sigma2), size=5000)
        model = baselines.garch_fit(y, p=0)
        estimates.append(model.unconditional_variance())
    garch_ok = abs(np.median(estimates) / sigma2 - 1.0) <= 0.15

    nn = baselines.NnkcdeModel(
        np.array([[0.0]]), np.array([0.3]), k=1, h=0.2, lo=-1.0, hi=1.0)
    grid = nn.grid()
    dens = estimator.predict_density(nn, np.array([0.0])).density
    closed = stats.norm.pdf(grid, loc=0.3, scale=0.2)
    closed /= np.trapezoid(closed, grid)
    nn_ok = np.abs(dens - closed).max() < 1e-10

    elapsed = time.perf_counter() - start
    acceptance(8, "baseline implementations recover closed forms",
               garch_ok and nn_ok and elapsed < 120.0)


def test_criterion_9_determinism_and_persistence(acceptance, tmp_path):
    args = ["bench", "--scenarios", "ar", "--sizes", "300",
            "--methods", "flexcode,nnkcde,garch", "--seeds", "0"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    bench_ok = cli_main(args + ["-o", str(first)]) == 0
    bench_ok &= cli_main(args + ["-o", str(second)]) == 0
    bench_ok &= first.read_bytes() == second.read_bytes()

    y = scenarios.generate("ar", 500, 3)
    design = lag_embed(SeriesTable(y), 3)
    probe = design.u[-40:]

    model = estimator.fit(design)
    path = tmp_path / "flexcode.json"
    save_model(path, "flexcode", model)
    _, loaded, _ = load_model(path)
    round_trip_ok = np.array_equal(
        estimator.predict_density_batch(model, probe).density,
        estimator.predict_density_batch(loaded, probe).density,
    )

    scaler = fit_scaler(design.y[:300])
    nn = baselines.nnkcde_fit(
        design.u[:300], design.y[:300], design.u[300:350], design.y[300:350],
        scaler.lo, scaler.hi)
    save_model(tmp_path / "nn.json", "nnkcde", nn)
    _, nn_loaded, _ = load_model(tmp_path / "nn.json")
    round_trip_ok &= np.array_equal(
        nn.predict_density_batch(probe), nn_loaded.predict_density_batch(probe))

    garch = baselines.garch_fit(y, p=3)
    save_model(tmp_path / "g.json", "garch", garch)
    _, garch_loaded, _ = load_model(tmp_path / "g.json")
    means_a, s2_a = baselines.garch_filter(garch, y)
    means_b, s2_b = baselines.garch_filter(garch_loaded, y)
    round_trip_ok &= np.array_equal(means_a, means_b)
    round_trip_ok &= np.array_equal(s2_a, s2_b)

    acceptance(9, "deterministic benches and bitwise persistence",
               bench_ok and round_trip_ok)
