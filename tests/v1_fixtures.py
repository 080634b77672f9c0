"""Version-1 model files for the persistence tests, and the fits behind them.

``fit_models`` fits one small model per method and per flexcode backend.
The files in ``tests/data/v1/`` hold those fits as a format-version-1
build of flexts saved them; the tests load them with the current code
and compare against a fresh ``fit_models``. To rewrite the files, run
this script with a version-1 checkout's sources first on the path:

    PYTHONPATH=<version-1 checkout>/src python tests/v1_fixtures.py
"""

import os

from flexts import baselines, estimator, persistence
from flexts.basis import fit_scaler
from flexts.features import SeriesTable, lag_embed
from flexts.scenarios import generate

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "v1")

# small i_max and series keep each version-1 file under 40 KB
FLEXCODE_CONFIGS = {
    "flexcode_nw": {"backend": "nw", "i_max": 5},
    "flexcode_knn": {"backend": "knn", "basis": "fourier", "i_max": 5,
                     "refit_final": True},
    "flexcode_lasso": {"backend": "lasso", "i_max": 10},
}


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
    if persistence.FORMAT_VERSION != 1:
        raise SystemExit("this writes version-1 files: run it with a version-1 flexts")
    os.makedirs(DATA_DIR, exist_ok=True)
    for name, (method, model, _) in fit_models().items():
        path = os.path.join(DATA_DIR, f"{name}.json")
        persistence.save_model(path, method, model, {"fixture": name})
        print(f"{path}: {os.path.getsize(path)} bytes")
