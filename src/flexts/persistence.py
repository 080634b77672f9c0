"""Model save/load as self-describing JSON.

A model file (format version 2) is sorted, compact JSON holding
``format_version``, ``method``, ``metadata`` (feature construction and
split fractions, enough to rebuild design matrices for evaluation) and
``model``: the fitted model's dataclass fields, arrays as nested lists
and nested dataclasses (the scaler, a flexcode backend) as objects.
``json`` writes every float with ``repr``, which round-trips IEEE
doubles exactly, so a loaded model reproduces the saved model's
predictions bit for bit. Loading rebuilds each field from its type
annotation.

Version-1 files, which wrote floats as 17-digit decimal strings and kept
a flexcode backend's kind and hyperparameter inside the backend object,
still load.
"""

import dataclasses
import json

import numpy as np

from flexts.baselines import GarchModel, NnkcdeModel
from flexts.basis import check_grid_size
from flexts.errors import DataError
from flexts.estimator import CoefficientModel
from flexts.regression import HYPER_NAMES, KnnModel, LassoModel, NadarayaWatsonModel

FORMAT_VERSION = 2

METHODS = {"flexcode": CoefficientModel, "nnkcde": NnkcdeModel, "garch": GarchModel}
BACKENDS = {"nw": NadarayaWatsonModel, "knn": KnnModel, "lasso": LassoModel}


def _jsonable(obj):
    """What json cannot write itself: dataclasses, arrays, numpy scalars."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot save a {type(obj).__name__}")


def save_model(path, method, model, metadata=None):
    """Write a fitted model with metadata; identical fits yield identical bytes."""
    if not isinstance(model, METHODS.get(method, ())):
        raise ValueError(f"cannot save a {type(model).__name__} as method {method!r}")
    doc = {
        "format_version": FORMAT_VERSION,
        "method": method,
        "metadata": metadata or {},
        "model": model,
    }
    # without indent, json uses its C encoder
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_jsonable)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _decode(cls, doc):
    """Rebuild dataclass ``cls`` from its fields, each converted by its type."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue  # a default applies, or the constructor reports it missing
        # a flexcode backend's class is the one its backend_kind names
        kind = BACKENDS[doc["backend_kind"]] if f.name == "backend" else f.type
        value = doc[f.name]
        if dataclasses.is_dataclass(kind):
            value = _decode(kind, value)
        elif kind is np.ndarray:
            value = np.asarray(value)
            if value.dtype.kind == "U":  # version 1's decimal strings
                value = value.astype(float)
        elif kind is int and not (isinstance(value, str) or float(value).is_integer()):
            # int() would truncate 2.5; version 1's knn k is a string ("9")
            raise ValueError(f"{f.name}={value!r} is not an integer")
        else:
            value = kind(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def _flexcode_from_v1(body):
    """Move a version-1 backend's kind and hyper to the fields that hold them now."""
    backend = body["backend"]
    kind = body["backend_kind"] = backend.pop("kind")
    body["hyper"] = backend[HYPER_NAMES[kind]] = backend.pop("hyper")
    for name in ("candidate_hypers", "candidate_losses"):
        body[name] = [float(v) for v in body[name]]


def load_model(path):
    """Read a model file; returns (method, model, metadata)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise DataError(f"model file {path} lacks a format_version field")
    version = doc["format_version"]
    if version not in (1, FORMAT_VERSION):
        raise DataError(
            f"model file {path} has format_version {version}; "
            f"this build reads versions 1 to {FORMAT_VERSION}"
        )
    method = doc.get("method")
    if method not in METHODS:
        raise DataError(f"model file {path} has unknown method {method!r}")
    body = doc.get("model", {})
    try:
        if version == 1 and method == "flexcode":
            _flexcode_from_v1(body)
        model = _decode(METHODS[method], body)
        owner = getattr(model, "backend", model)  # knn and NNKCDE average k rows
        if hasattr(owner, "k") and not 1 <= owner.k <= len(owner.train_u):
            raise ValueError(f"k={owner.k} is outside [1, {len(owner.train_u)}]")
        # a GARCH file's grid_size 0 means: rebuild the grid from the metadata
        if not (method == "garch" and model.grid_size == 0):
            check_grid_size(model.grid_size)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(
            f"model file {path} has a missing or malformed field: {exc!r}"
        ) from exc
    return method, model, doc.get("metadata", {})
