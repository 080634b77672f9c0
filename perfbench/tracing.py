"""Spans and counters around flexts' public functions, for the traced run.

``install`` replaces each probed function at every binding through which
flexts code or the benchmark reaches it: the defining module's attribute,
every ``from ... import`` copy in another flexts module, and the class
attribute for a method. ``uninstall`` puts every original back. Spans
(name, start, end, parent, operation) are kept in memory and turned into
per-layer metrics when the run ends. Untraced runs never import this
module's wrappers into flexts; inside a traced run, ``suspended`` takes
the wrappers out for one untraced call, which ``trace.overhead`` compares
with the traced one.

A function's self time is its span time minus the time of the wrapped
spans directly inside it; spans of functions that are only counted
(``span=False``) do not exist, so their time stays in the caller.
"""

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Operation kinds whose coverage is reported; see Tracer.begin_op.
OP_KINDS = ("fit", "save", "load", "forecast", "evaluate", "bench_flexcode",
            "bench_nnkcde", "bench_garch")


@dataclass(frozen=True)
class Probe:
    """One probed callable: ``attr`` is "func" or "Class.method" in ``module``."""

    module: str
    attr: str
    metric: str
    span: bool = True
    peak: bool = False
    count: object = None  # count(tracer, bound_arguments, result)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock=time.perf_counter, track_memory=True):
        self.clock = clock
        self.track_memory = track_memory
        self.recording = True
        self.spans = []  # [name, start, end, parent index or None, op index or None]
        self.ops = []  # [kind, start, end]
        self.counters = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self._stack = []
        self._peak_frames = []  # [name, traced bytes at entry, highest traced bytes]
        self._op = None

    def checkpoint(self):
        """A mark to roll back to: calls after it are timed but not kept."""
        return (len(self.spans), len(self.ops), dict(self.counters),
                dict(self.peak_mb))

    def rollback(self, mark):
        n_spans, n_ops, counters, peak_mb = mark
        del self.spans[n_spans:]
        del self.ops[n_ops:]
        self.counters = defaultdict(float, counters)
        self.peak_mb = defaultdict(float, peak_mb)

    # operations -----------------------------------------------------------

    def begin_op(self, kind):
        self._op = len(self.ops)
        self.ops.append([kind, self.clock(), None])

    def end_op(self):
        self.ops[self._op][2] = self.clock()
        self._op = None

    @property
    def op_kind(self):
        return None if self._op is None else self.ops[self._op][0]

    # spans ----------------------------------------------------------------

    def enter(self, name, peak=False):
        if peak and self.track_memory:
            # allocations are traced only inside peak-tracked spans, so the
            # rest of the run does not pay tracemalloc's per-allocation cost
            if self._peak_frames:
                self._fold_peak()
            else:
                tracemalloc.start()
            tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
            self._peak_frames.append([name, current, current])
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def exit(self, idx, peak=False):
        self.spans[idx][2] = self.clock()
        self._stack.pop()
        if peak and self.track_memory:
            self._fold_peak()
            name, start, high = self._peak_frames.pop()
            mb = (high - start) / 1e6
            self.peak_mb[name] = max(self.peak_mb[name], mb)
            if not self._peak_frames:
                tracemalloc.stop()

    def _fold_peak(self):
        high = tracemalloc.get_traced_memory()[1]
        for frame in self._peak_frames:
            frame[2] = max(frame[2], high)


def measure_peak(tracer, layer, fn):
    """Record the peak traced allocation of one extra, untimed call of fn."""
    tracemalloc.start()
    try:
        fn()
        high = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracer.peak_mb[layer] = max(tracer.peak_mb[layer], high / 1e6)


def self_times(spans):
    """Total self time per span name: duration minus direct children's durations."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[idx]
    return dict(out)


def coverage(spans, ops):
    """Per operation kind: share of operation wall time inside top-level spans."""
    covered = defaultdict(float)
    for _, start, end, parent, op in spans:
        if parent is None and op is not None:
            covered[op] += end - start
    inside = defaultdict(float)
    total = defaultdict(float)
    for op, (kind, start, end) in enumerate(ops):
        total[kind] += end - start
        inside[kind] += covered[op]
    return {kind: inside[kind] / total[kind] for kind in total if total[kind] > 0}


# ---------------------------------------------------------------------------
# counters computed from arguments and results
# ---------------------------------------------------------------------------


def _rows(a):
    return int(np.shape(a)[0])


def _count_basis(tr, args, result):
    tr.counters["basis.basis_matrix.cells"] += int(result.size)


def _count_dists(tr, args, result):
    tr.counters["regression.dist_cells"] += _rows(args["a"]) * _rows(args["b"])


def _count_nw(tr, args, result):
    tr.counters["regression.nw_rows"] += _rows(args["eval_u"])
    tr.counters["regression.nw_fallback_rows"] += int(result.n_fallback)


def _count_cd(tr, args, result):
    tr.counters["regression.lasso_cd_cycles"] += int(np.sum(result.n_iter))


def _count_candidates(tr, args, result):
    tr.counters["estimator.candidates"] += len(result.candidate_hypers)


def _count_tabulated(tr, args, result):
    if tr.op_kind == "forecast":
        tr.counters["estimator.forecast_tabulated_rows"] += result.density.shape[0]


def _count_kernel_evals(tr, args, result):
    from flexts import baselines, regression

    n_tr = _rows(args["train_u"])
    k_grid = args["k_grid"]
    k_max = (max(regression.default_k_grid(n_tr)) if k_grid is None
             else max(int(k) for k in k_grid if int(k) <= n_tr))
    h_grid = args["h_grid"]
    n_h = (len(baselines.default_bandwidth_grid(args["train_y"])) if h_grid is None
           else len(h_grid))
    tr.counters["baselines.nnkcde_kernel_evals"] += (
        _rows(args["val_u"]) * k_max * int(args["grid_size"]) * n_h)


def _count_file_bytes(tr, args, result):
    tr.counters["persistence.file_bytes"] = os.path.getsize(args["path"])


PROBES = (
    Probe("flexts.features", "lag_embed", "features.lag_embed"),
    Probe("flexts.scenarios", "generate", "scenarios.generate"),
    Probe("flexts.scenarios", "density_rows", "scenarios.density_rows"),
    Probe("flexts.basis", "basis_matrix", "basis.basis_matrix", count=_count_basis),
    Probe("flexts.regression", "pairwise_sq_dists", "regression.pairwise_sq_dists",
          peak=True, count=_count_dists),
    Probe("flexts.regression", "nw_predict_grid", "regression.nw_predict_grid",
          peak=True),
    Probe("flexts.regression", "knn_predict_grid", "regression.knn_predict_grid",
          peak=True),
    Probe("flexts.regression", "NadarayaWatsonModel.predict",
          "regression.backend_predict"),
    Probe("flexts.regression", "KnnModel.predict", "regression.backend_predict"),
    Probe("flexts.regression", "LassoModel.predict", "regression.backend_predict"),
    Probe("flexts.regression", "nw_predict", "regression.nw_predict", span=False,
          count=_count_nw),
    Probe("flexts.regression", "lasso_path", "regression.lasso_path"),
    Probe("flexts.regression", "lasso_fit", "regression.lasso_fit", span=False,
          count=_count_cd),
    Probe("flexts.regression", "default_delta_grid", "regression.default_grid"),
    Probe("flexts.regression", "default_k_grid", "regression.default_grid"),
    Probe("flexts.regression", "default_lambda_grid", "regression.default_grid"),
    Probe("flexts.evaluation", "oracle_cde_loss", "evaluation.oracle_cde_loss"),
    Probe("flexts.evaluation", "cde_loss_curve", "evaluation.cde_loss_curve"),
    Probe("flexts.evaluation", "cde_loss_grid", "evaluation.cde_loss_grid"),
    Probe("flexts.evaluation", "pinball_loss", "evaluation.pinball_loss"),
    Probe("flexts.estimator", "fit", "estimator.fit", count=_count_candidates),
    Probe("flexts.estimator", "predict_density_batch",
          "estimator.predict_density_batch", peak=True, count=_count_tabulated),
    Probe("flexts.estimator", "predict_quantiles", "estimator.predict_quantiles"),
    Probe("flexts.estimator", "quantiles_from_grid_density",
          "estimator.quantiles_from_grid_density", span=False),
    Probe("flexts.baselines", "nnkcde_fit", "baselines.nnkcde_fit", peak=True,
          count=_count_kernel_evals),
    Probe("flexts.baselines", "NnkcdeModel.predict_density_batch",
          "baselines.nnkcde_predict"),
    Probe("flexts.baselines", "garch_fit", "baselines.garch_fit"),
    Probe("flexts.baselines", "garch_negloglik", "baselines.garch_negloglik",
          span=False),
    Probe("flexts.baselines", "garch_filter", "baselines.garch_filter"),
    Probe("flexts.baselines", "garch_density_rows", "baselines.garch_density_rows"),
    Probe("flexts.persistence", "save_model", "persistence.save_model",
          count=_count_file_bytes),
    # load_model's peak comes from measure_peak: tracing its many small
    # allocations inline would inflate its self time several-fold
    Probe("flexts.persistence", "load_model", "persistence.load_model"),
    Probe("flexts.cli", "read_series_csv", "cli.read_series_csv"),
    Probe("flexts.cli", "cmd_evaluate", "cli.cmd_evaluate"),
    Probe("flexts.cli", "run_bench_cell", "cli.run_bench_cell"),
)


def _wrap(original, probe, tracer):
    signature = inspect.signature(original) if probe.count else None

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return original(*args, **kwargs)
        tracer.counters[probe.metric + ".calls"] += 1
        if probe.span:
            idx = tracer.enter(probe.metric, probe.peak)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(idx, probe.peak)
        else:
            result = original(*args, **kwargs)
        if probe.count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            # the counter may call flexts helpers; keep them out of the trace
            tracer.recording = False
            try:
                probe.count(tracer, bound.arguments, result)
            finally:
                tracer.recording = True
        return result

    return wrapper


def install(tracer, probes=PROBES):
    """Wrap every probe at each of its bindings; returns what uninstall needs."""
    patched = []  # (owner, attribute name, original, wrapper)
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "flexts" or name.startswith("flexts."))]
    for probe in probes:
        module = importlib.import_module(probe.module)
        if "." in probe.attr:
            cls_name, meth = probe.attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[meth]
            patched.append((owner, meth, original, _wrap(original, probe, tracer)))
            continue
        original = getattr(module, probe.attr)
        wrapper = _wrap(original, probe, tracer)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, name, original, wrapper))
    for owner, name, _, wrapper in patched:
        setattr(owner, name, wrapper)
    return patched


def uninstall(patched):
    """Restore every binding install replaced."""
    for owner, name, original, _ in reversed(patched):
        setattr(owner, name, original)


@contextlib.contextmanager
def suspended(patched):
    """Restore the originals for the duration of the block, then rewrap."""
    uninstall(patched)
    try:
        yield
    finally:
        for owner, name, _, wrapper in patched:
            setattr(owner, name, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIME_LAYERS = (
    "features.lag_embed",
    "scenarios.generate",
    "scenarios.density_rows",
    "basis.basis_matrix",
    "regression.pairwise_sq_dists",
    "regression.nw_predict_grid",
    "regression.knn_predict_grid",
    "regression.backend_predict",
    "regression.lasso_path",
    "regression.default_grid",
    "evaluation.oracle_cde_loss",
    "evaluation.cde_loss_curve",
    "evaluation.cde_loss_grid",
    "evaluation.pinball_loss",
    "estimator.fit",
    "estimator.predict_density_batch",
    "estimator.predict_quantiles",
    "baselines.nnkcde_fit",
    "baselines.nnkcde_predict",
    "baselines.garch_fit",
    "baselines.garch_filter",
    "baselines.garch_density_rows",
    "persistence.save_model",
    "persistence.load_model",
    "cli.read_series_csv",
    "cli.cmd_evaluate",
    "cli.run_bench_cell",
)

PEAK_LAYERS = (
    "regression.pairwise_sq_dists",
    "regression.nw_predict_grid",
    "regression.knn_predict_grid",
    "baselines.nnkcde_fit",
    "estimator.predict_density_batch",
    "persistence.load_model",
)

# (name, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in SELF_TIME_LAYERS)
    + (
        ("basis.basis_matrix.calls", "count", "lower"),
        ("basis.basis_matrix.cells", "count", "lower"),
        ("regression.pairwise_sq_dists.calls", "count", "lower"),
        ("regression.dist_cells", "count", "lower"),
        ("regression.dist_mb_computed", "MB", "lower"),
        ("regression.nw_fallback_ratio", "ratio", "lower"),
        ("regression.lasso_cd_cycles", "count", "lower"),
        ("estimator.candidates_per_fit", "count", "lower"),
        ("estimator.quantiles_from_grid_density.calls", "count", "lower"),
        ("estimator.tabulated_rows_per_forecast_row", "ratio", "lower"),
        ("baselines.nnkcde_kernel_evals", "count", "lower"),
        ("baselines.garch_nll_evals", "count", "lower"),
        ("persistence.file_bytes", "bytes", "lower"),
    )
    + tuple((f"{layer}.peak_alloc_mb", "MB", "lower") for layer in PEAK_LAYERS)
    + tuple((f"trace.coverage.{kind}", "ratio", "higher") for kind in OP_KINDS)
    + (("trace.overhead", "ratio", "lower"),)
)

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = tuple(name for name, unit, _ in LAYER_METRICS
                     if unit in ("count", "bytes"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, overhead):
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    c = tracer.counters
    selfs = self_times(tracer.spans)
    cover = coverage(tracer.spans, tracer.ops)
    n_forecast = sum(1 for kind, _, _ in tracer.ops if kind == "forecast")
    values = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    values.update({
        "basis.basis_matrix.calls": c["basis.basis_matrix.calls"],
        "basis.basis_matrix.cells": c["basis.basis_matrix.cells"],
        "regression.pairwise_sq_dists.calls": c["regression.pairwise_sq_dists.calls"],
        "regression.dist_cells": c["regression.dist_cells"],
        "regression.dist_mb_computed": c["regression.dist_cells"] * 8 / 1e6,
        "regression.nw_fallback_ratio": _ratio(c["regression.nw_fallback_rows"],
                                               c["regression.nw_rows"]),
        "regression.lasso_cd_cycles": c["regression.lasso_cd_cycles"],
        "estimator.candidates_per_fit": _ratio(c["estimator.candidates"],
                                               c["estimator.fit.calls"]),
        "estimator.quantiles_from_grid_density.calls":
            c["estimator.quantiles_from_grid_density.calls"],
        "estimator.tabulated_rows_per_forecast_row":
            _ratio(c["estimator.forecast_tabulated_rows"], n_forecast),
        "baselines.nnkcde_kernel_evals": c["baselines.nnkcde_kernel_evals"],
        "baselines.garch_nll_evals": c["baselines.garch_negloglik.calls"],
        "persistence.file_bytes": c["persistence.file_bytes"],
    })
    values.update({f"{layer}.peak_alloc_mb": tracer.peak_mb.get(layer, 0.0)
                   for layer in PEAK_LAYERS})
    values.update({f"trace.coverage.{kind}": cover.get(kind, 0.0)
                   for kind in OP_KINDS})
    values["trace.overhead"] = overhead
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in LAYER_METRICS}
