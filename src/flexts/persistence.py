"""Model save/load as self-describing JSON.

A model file (format version 4) is sorted, compact JSON holding
``format_version``, ``method``, ``metadata`` (whatever the caller passed;
nothing in flexts reads it from a version-4 file) and ``model``: the
fitted model's dataclass fields, arrays as nested lists and nested
dataclasses (the scaler, a flexcode backend, the feature spec and the
split) as objects. ``features`` and ``split`` say how the fit built and
split its design, so ``flexts evaluate``, ``predict`` and ``importance``
rebuild a design from a series with the model alone. ``json`` writes
every float with ``repr``, which round-trips IEEE doubles exactly.
Loading rebuilds each field from its type annotation with ``decode``,
the reader ``flexts bench`` also parses its config with. The model's
constructor, and those of its feature spec and split, check their own
fields (finite training arrays, k, the nw radius, the basis, the lag
count, the rolling statistics, the split fractions) and prepare what
predictions reuse.

An nw or knn backend regresses the basis rows phi_i(z) of the scaled
training responses z, an n x (i_max + 1) matrix (``train_phi``) that the
n responses determine. A flexcode file therefore stores those responses
(``train_z``: the training rows', then under ``refit_final`` the kept
validation rows') in place of the matrix, and ``decode`` rebuilds the
matrix with ``basis_matrix`` before the backend is built; ``basis_matrix``
checks ``i_max`` against its ceiling first, so an oversized file fails
before it allocates. The
forecast-nw-n20k benchmark's model (n_train 14,000, i_max 15) takes
1.16 MB in this format against 5.08 MB in version 2. Rebuilt rows equal
the fitted ones bit for bit because ``basis_matrix`` computes each row on
its own, the way the fit did, so a loaded model reproduces the saved
model's predictions bit for bit on the numpy build that saved it; on
another build ``cos`` and ``sin`` may round differently.

Versions 1 to 3, which kept the feature spec and the split in the
metadata, no longer load: flexts at commit e3707ce reads them, and saved
again there such a model becomes a version-4 file. A version-4 file
written that way may hold a flexcode backend's ``train_phi`` in place of
``train_z``; it loads like any other.
"""

import dataclasses
import json
import typing

import numpy as np

from flexts.baselines import GarchModel, NnkcdeModel
from flexts.basis import basis_matrix
from flexts.errors import DataError
from flexts.estimator import CoefficientModel
from flexts.regression import BACKENDS

FORMAT_VERSION = 4

METHODS = {"flexcode": CoefficientModel, "nnkcde": NnkcdeModel, "garch": GarchModel}


def _jsonable(obj):
    """What json cannot write itself: dataclasses, arrays, numpy scalars.

    A flexcode model writes its training responses in place of its
    backend's basis rows, which they determine, and nothing when it has
    none (a lasso backend, or a model read from a file that kept the rows).
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
    """Write a fitted model with metadata; identical fits yield identical bytes.

    A path that cannot be written is a DataError.
    """
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
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


def _read_value(kind, value, name):
    """``value`` as annotation ``kind``, or a ValueError naming field ``name``.

    A dataclass decodes from its object and a list[T] converts each entry.
    A number must be a JSON number, integral for an int; a bool, str, list
    or dict must have that type already.
    """
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValueError(f"{name!r} must be an object, got {value!r}")
        return decode(kind, value)
    (item,) = typing.get_args(kind) or (None,)
    try:
        if item is not None:
            if not isinstance(value, list):
                raise TypeError
            return [_read_value(item, v, name) for v in value]
        if isinstance(value, bool) != (kind is bool):
            raise TypeError  # only JSON true and false are bools
        if kind in (int, float) and isinstance(value, (int, float)):
            number = kind(value)
            if kind is int and number != value:
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

    Nested dataclasses, alone or in a list, decode in turn and arrays
    convert whole; an optional field (``T | None``) reads null as None and
    anything else as T. Keys that are not fields are ignored.
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
            # basis rows a file rebuilds from the training responses
            kind = BACKENDS[doc["backend_kind"]]
            if doc.get("train_z") is not None:
                value = {**value, "train_phi": basis_matrix(
                    kwargs["basis"], doc["train_z"], kwargs["i_max"])}
        if kind is np.ndarray:
            value = np.asarray(value)
        else:
            value = _read_value(kind, value, f.name)
        kwargs[f.name] = value
    return cls(**kwargs)


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
    if version != FORMAT_VERSION:
        resave = ("; load the file and save it again with flexts at commit "
                  "e3707ce, which writes version 4" if version in (1, 2, 3) else "")
        raise DataError(f"model file {path} has format_version {version}; "
                        f"this build reads version {FORMAT_VERSION} only{resave}")
    method = doc.get("method")
    if method not in METHODS:
        raise DataError(f"model file {path} has unknown method {method!r}")
    try:
        # the constructors check every field: the training arrays, k, the
        # radius, the basis, the grid, the feature spec and the split
        model = decode(METHODS[method], doc.get("model", {}))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(
            f"model file {path} has a missing or malformed field: {exc!r}"
        ) from exc
    return method, model, doc.get("metadata", {})
