"""Model save/load as self-describing JSON.

A model file (format version 3) is sorted, compact JSON holding
``format_version``, ``method``, ``metadata`` (feature construction and
split fractions, enough to rebuild design matrices for evaluation) and
``model``: the fitted model's dataclass fields, arrays as nested lists
and nested dataclasses (the scaler, a flexcode backend) as objects.
``json`` writes every float with ``repr``, which round-trips IEEE
doubles exactly. Loading rebuilds each field from its type annotation
with ``decode``, the reader ``flexts bench`` also parses its config
with, and checks the metadata keys the CLI writes by their types and,
for the split, the lag count and the rolling statistics, by their
shapes and ranges. The model's constructor checks its own fields (finite
training arrays, k, the nw radius, the basis) and prepares what
predictions reuse.

An nw or knn backend regresses the basis rows phi_i(z) of the scaled
training responses z, an n x (i_max + 1) matrix (``train_phi``) that the
n responses determine. A flexcode file therefore stores those responses
(``train_z``: the training rows', then under ``refit_final`` the kept
validation rows') in place of the matrix, and ``decode`` rebuilds the
matrix with ``basis_matrix`` before the backend is built. The
forecast-nw-n20k benchmark's model (n_train 14,000, i_max 15) takes
1.16 MB in this format against 5.08 MB in version 2. Rebuilt rows equal
the fitted ones bit for bit because ``basis_matrix`` computes each row on
its own, the way the fit did, so a loaded model reproduces the saved
model's predictions bit for bit on the numpy build that saved it; on
another build ``cos`` and ``sin`` may round differently. Lasso, NNKCDE
and GARCH files hold no such matrix and read as in version 2.

Version-2 files, which store ``train_phi`` itself, and version-1 files,
which also wrote floats as 17-digit decimal strings and kept a flexcode
backend's kind and hyperparameter inside the backend object, still
load; saved again, such a model keeps its ``train_phi``, having no
responses to rebuild it from.
"""

import dataclasses
import json
import typing

import numpy as np

from flexts.baselines import GarchModel, NnkcdeModel
from flexts.basis import basis_matrix, check_grid_size
from flexts.errors import DataError
from flexts.estimator import CoefficientModel
from flexts.features import RollingSpec, SplitSpec
from flexts.regression import BACKENDS

FORMAT_VERSION = 3

METHODS = {"flexcode": CoefficientModel, "nnkcde": NnkcdeModel, "garch": GarchModel}
# the types of the metadata keys the CLI writes; other keys load unchecked
METADATA_TYPES = {
    "target": str, "n_lags": int, "rolling": list[list], "exog": list[str],
    "exog_contemporaneous": bool, "split": list[float], "method": str,
    "pad": float, "grid_size": int, "backend": str, "basis": str,
}


def _jsonable(obj):
    """What json cannot write itself: dataclasses, arrays, numpy scalars.

    A flexcode model writes its training responses in place of its
    backend's basis rows, which they determine, and nothing when it has
    none (a lasso backend, or a model read from a version-1 or 2 file).
    """
    if dataclasses.is_dataclass(obj):
        doc = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, CoefficientModel):
            if obj.train_z is None:
                del doc["train_z"]
            else:
                doc["backend"] = {name: value for name, value
                                  in _jsonable(obj.backend).items()
                                  if name != "train_phi"}
        return doc
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


def _read_value(kind, value, name):
    """``value`` as annotation ``kind``, or a ValueError naming field ``name``.

    A list[T] converts each entry. A number may be a decimal string, as
    version 1 wrote floats, and an int must be integral; a bool, str, list
    or dict must have that type already.
    """
    (item,) = typing.get_args(kind) or (None,)
    try:
        if item is not None:
            if not isinstance(value, list):
                raise TypeError
            return [_read_value(item, v, name) for v in value]
        if isinstance(value, bool) != (kind is bool):
            raise TypeError  # only JSON true and false are bools
        if kind in (int, float):
            number = kind(value)
            if kind is int and not isinstance(value, str) and number != value:
                raise ValueError  # int() would truncate 2.5
            return number
        if not isinstance(value, kind):
            raise TypeError
        return value
    except (TypeError, ValueError, OverflowError):
        shape = kind.__name__ if item is None else f"a list of {item.__name__}"
        raise ValueError(f"{name!r} must be {shape}, got {value!r}") from None


def decode(cls, doc):
    """Rebuild dataclass ``cls`` from the fields ``doc`` names, each read by its type.

    Nested dataclasses decode in turn and arrays convert whole; an
    optional field (``T | None``) reads null as None and anything else as
    T. Keys that are not fields are ignored.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in doc:
            continue  # a default applies, or the constructor reports it missing
        kind, value = f.type, doc[f.name]
        if type(None) in typing.get_args(kind):
            if value is None:
                kwargs[f.name] = None
                continue
            (kind,) = set(typing.get_args(kind)) - {type(None)}
        if kind is object:
            # a flexcode backend: the class its backend_kind names, whose
            # basis rows a version-3 file rebuilds from the training responses
            kind = BACKENDS[doc["backend_kind"]]
            if doc.get("train_z") is not None:
                value = {**value, "train_phi": basis_matrix(
                    kwargs["basis"], doc["train_z"], kwargs["i_max"])}
        if dataclasses.is_dataclass(kind):
            value = decode(kind, value)
        elif kind is np.ndarray:
            value = np.asarray(value)
            if value.dtype.kind == "U":  # version 1's decimal strings
                value = value.astype(float)
        else:
            value = _read_value(kind, value, f.name)
        kwargs[f.name] = value
    return cls(**kwargs)


def _flexcode_from_v1(body):
    """Move a version-1 backend's kind and hyper to the fields that hold them now."""
    backend = body["backend"]
    kind = body["backend_kind"] = backend.pop("kind")
    body["hyper"] = backend[BACKENDS[kind].hyper_name] = backend.pop("hyper")
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
    if version not in range(1, FORMAT_VERSION + 1):
        raise DataError(
            f"model file {path} has format_version {version}; "
            f"this build reads versions 1 to {FORMAT_VERSION}"
        )
    method = doc.get("method")
    if method not in METHODS:
        raise DataError(f"model file {path} has unknown method {method!r}")
    body = doc.get("model", {})
    meta = doc.get("metadata", {})
    try:
        if version == 1 and method == "flexcode":
            _flexcode_from_v1(body)
        # the constructors check training arrays, k, the radius and the basis
        model = decode(METHODS[method], body)
        # a GARCH file's grid_size 0 means: rebuild the grid from the metadata
        if not (method == "garch" and model.grid_size == 0):
            check_grid_size(model.grid_size)
        meta = {key: _read_value(METADATA_TYPES[key], value, key)
                if key in METADATA_TYPES else value for key, value in meta.items()}
        if "split" in meta:
            SplitSpec.from_list(meta["split"])
        if meta.get("n_lags", 1) < 1:
            raise ValueError(f"n_lags must be >= 1, got {meta['n_lags']}")
        for stat, window in meta.get("rolling", []):
            RollingSpec(stat=stat, window=_read_value(int, window, "rolling"))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(
            f"model file {path} has a missing or malformed field: {exc!r}"
        ) from exc
    return method, model, meta
