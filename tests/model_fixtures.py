"""Committed model files for the persistence tests, and the fits behind them.

``fit_models`` fits one small model per method and per flexcode backend.
The files in ``tests/data/v<N>/`` hold those fits as saved in format
version N; the tests load them and compare against a fresh
``fit_models``, so a change that moves a fit's bits, or the bytes a fit
saves to, shows up there. This script writes the directory of the format
version of the flexts it imports:

    PYTHONPATH=src python tests/model_fixtures.py
"""

import os

from flexts import baselines, estimator, persistence
from flexts.basis import fit_scaler
from flexts.features import SeriesTable, lag_embed
from flexts.scenarios import generate

NAMES = ("flexcode_nw", "flexcode_knn", "flexcode_lasso", "nnkcde", "garch")

# small i_max and series keep each file under 40 KB
FLEXCODE_CONFIGS = {
    "flexcode_nw": {"backend": "nw", "i_max": 5},
    "flexcode_knn": {"backend": "knn", "basis": "fourier", "i_max": 5,
                     "refit_final": True},
    "flexcode_lasso": {"backend": "lasso", "i_max": 10},
}


def data_dir(version):
    """The directory of the format-version-``version`` files."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        f"v{version}")


def ar_design(n, seed):
    return lag_embed(SeriesTable(generate("ar", n, seed)), 3)


def fit_models():
    """name -> (method, model, covariate rows to compare predictions on)."""
    models = {}
    design = ar_design(120, 11)
    for name, config in FLEXCODE_CONFIGS.items():
        model = estimator.fit(design, config=estimator.FitConfig(**config))
        models[name] = ("flexcode", model, design.u[-20:])
    design = ar_design(200, 12)
    scaler = fit_scaler(design.y[:140])
    models["nnkcde"] = ("nnkcde", baselines.nnkcde_fit(
        design.u[:140], design.y[:140], design.u[140:170], design.y[140:170],
        scaler.lo, scaler.hi,
    ), design.u[-20:])
    y = generate("nonlinear_variance", 300, 13)
    models["garch"] = ("garch", baselines.garch_fit(y, p=1), y)
    return models


if __name__ == "__main__":
    out_dir = data_dir(persistence.FORMAT_VERSION)
    os.makedirs(out_dir, exist_ok=True)
    for name, (method, model, _) in fit_models().items():
        path = os.path.join(out_dir, f"{name}.json")
        persistence.save_model(path, method, model, {"fixture": name})
        print(f"{path}: {os.path.getsize(path)} bytes")
