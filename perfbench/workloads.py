"""The benchmark's workloads: set-up, one pass of timed operations, checks.

Every workload draws its data only from ``scenarios.generate(..., seed)``
and calls flexts through its public modules, one operation after the
previous one returns (a closed loop with one caller). A pass is a fixed
list of operations, the same in every pass of a run, so a run's medians
do not depend on how many passes fit in its time.
"""

import contextlib
import io
import os
import time

import numpy as np

# flexts functions are called through their modules so that the traced
# run's wrappers, installed on module attributes, see every call
from flexts import cli, estimator, features, persistence, scenarios
from flexts.features import SeriesTable, SplitSpec, temporal_split

import gate as gates

TAUS = np.round(np.arange(1, 20) * 0.05, 2)  # 0.05 ... 0.95
N_FORECASTS = 100
N_CHECK_ROWS = 8


class Session:
    """Times and checks the operations of one pass; optionally traces them.

    With a tracer, ``untraced`` is a context manager that takes the trace
    wrappers out. Every operation then runs an untraced warm-up call and
    ``overhead_pairs`` pairs of one traced and one untraced call, in turn
    in either order; only the first traced call is kept in the trace and
    checked. ``trace.overhead`` is the pairs' traced time over their
    untraced time: every call follows a call of the same work, and more
    pairs average out the call-to-call noise.
    """

    def __init__(self, gate, tracer=None, untraced=None, overhead_pairs=1):
        self.gate = gate
        self.tracer = tracer
        self.untraced = untraced
        self.overhead_pairs = overhead_pairs
        self.samples = {}  # operation key -> list of seconds
        self.traced_seconds = 0.0  # summed time of the paired traced calls
        self.untraced_seconds = 0.0  # summed time of the paired untraced calls
        self._n_pairs = 0

    def op(self, kind, key, fn, check):
        """Run ``fn()`` as one timed operation; ``check(result)`` lists problems."""
        if self.untraced is None:
            return self._timed(kind, key, fn, check)
        self._untraced_call(fn)
        result = None
        for i in range(self.overhead_pairs):
            reference_first = self._n_pairs % 2 == 1
            self._n_pairs += 1
            if reference_first:
                self.untraced_seconds += self._untraced_call(fn)
            if i == 0:
                n = len(self.samples.get(key, ()))
                result = self._timed(kind, key, fn, check)
                self.traced_seconds += sum(self.samples.get(key, [])[n:])
            else:
                self.traced_seconds += self._discarded_traced_call(kind, fn)
            if not reference_first:
                self.untraced_seconds += self._untraced_call(fn)
        return result

    def _untraced_call(self, fn):
        with self.untraced():
            start = time.perf_counter()
            try:
                fn()
            except Exception:  # the kept traced call of the same work records the failure
                pass
            return time.perf_counter() - start

    def _discarded_traced_call(self, kind, fn):
        mark = self.tracer.checkpoint()
        self.tracer.begin_op(kind)
        start = time.perf_counter()
        try:
            fn()
        except Exception:
            pass
        elapsed = time.perf_counter() - start
        self.tracer.end_op()
        self.tracer.rollback(mark)
        return elapsed

    def _timed(self, kind, key, fn, check):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation failure is counted, not fatal
            if tracer is not None:
                tracer.end_op()
            self.gate.record(key, [f"raised {type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
            tracer.recording = False
        try:
            self.gate.record(key, check(result))
        finally:
            if tracer is not None:
                tracer.recording = True
        self.samples.setdefault(key, []).append(elapsed)
        return result

    def pass_seconds(self, since):
        """Operation time recorded since the sample counts in ``since``."""
        return sum(sum(v[since.get(k, 0):]) for k, v in self.samples.items())

    def counts(self):
        return {k: len(v) for k, v in self.samples.items()}


def _test_rows(design, count):
    _, _, te = temporal_split(design.n_rows, SplitSpec())
    return design.u[te.start : te.start + count]


def _fit_fingerprint(model):
    return {
        "hyper_index": model.candidate_hypers.index(model.hyper),
        "i_selected": int(model.i_selected),
        "val_loss": float(model.diagnostics["val_loss"]),
    }


def _model_problems(gate, key, model, u_rows):
    """Fingerprint plus density and quantile invariants on a few test rows."""
    problems = gate.fingerprint(key, _fit_fingerprint(model))
    batch = estimator.predict_density_batch(model, u_rows)
    problems += gates.density_problems(batch.grid_y, batch.density)
    problems += gates.quantile_problems(estimator.predict_quantiles(model, u_rows, TAUS))
    return problems


class Workload:
    """Defaults for workloads whose set-up needs no check and no memory probe.

    ``latency_keys`` name the operations behind ``op_gmean_ms``: the
    geometric mean of each one's median latency, so every configuration
    the workload times weighs the same in the metric.
    """

    # a run makes at least this many passes, whatever --seconds says
    min_passes = 1
    # traced and untraced call pairs per operation for trace.overhead; a
    # traced run makes 1 + 2 * overhead_pairs calls of every operation
    overhead_pairs = 1

    def prepare(self, state, gate):
        """Untimed: check the set-up and tabulate what operations must return."""

    def memory_probes(self, state):
        """Calls whose peak allocation the traced run measures apart from the pass."""
        return {}


class FitWorkload(Workload):
    """Four estimator.fit calls on one n=20000 arma_jump series."""

    name = "fit-n20k"
    # a pass is four single fits; two passes give each fit a median of two
    min_passes = 2
    overhead_pairs = 3
    FITS = (
        ("fit_nw", 3, "nw"),
        ("fit_knn", 3, "knn"),
        ("fit_lasso", 3, "lasso"),
        ("fit_knn_d20", 20, "knn"),
    )
    latency_keys = tuple(key for key, _, _ in FITS)

    def setup(self, seed, workdir):
        y = scenarios.generate("arma_jump", 20000, seed=seed)
        return {lags: features.lag_embed(SeriesTable(y), lags) for lags in (3, 20)}

    def run_pass(self, designs, session):
        for key, lags, backend in self.FITS:
            design = designs[lags]
            config = estimator.FitConfig(backend=backend)
            session.op(
                "fit", key,
                lambda: estimator.fit(design, SplitSpec(), config),
                lambda model: _model_problems(
                    session.gate, key, model, _test_rows(design, N_CHECK_ROWS)),
            )

    def details(self, samples):
        return {f"{key}_s": (samples.get(key, []), "s", 1.0) for key, _, _ in self.FITS}


class ForecastWorkload(Workload):
    """Serve one fitted nw model: save, load, single-row forecasts, CLI evaluate."""

    name = "forecast-nw-n20k"
    latency_keys = ("forecast_one",)
    # one flexts evaluate call of the same work varies by up to +-25% on a
    # 2-vCPU VM; five pairs average that down
    overhead_pairs = 5
    # A forecast costs time in proportion to the selected cutoff I, which
    # the default i_max=30 lets wander with the seed. With i_max=15 every
    # seed 0-19 selects I = 15 (seed 5: 14), so the served model costs the
    # same on every seed.
    I_MAX = 15

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        series_path = os.path.join(workdir, "series.csv")
        y = scenarios.generate("arma_jump", 20000, seed=seed)
        cli.write_csv(series_path, ["y"], [(v,) for v in y])
        design = features.lag_embed(SeriesTable(y), 3)
        config = estimator.FitConfig(backend="nw", i_max=self.I_MAX)
        model = estimator.fit(design, SplitSpec(), config)
        meta = {
            "target": "y", "n_lags": 3, "rolling": [], "exog": [],
            "exog_contemporaneous": False, "split": [0.7, 0.1, 0.2],
            "method": "flexcode", "backend": "nw", "basis": model.basis,
        }
        return {
            "series": series_path,
            "model_path": os.path.join(workdir, "model.json"),
            "eval_path": os.path.join(workdir, "eval.csv"),
            "design": design,
            "model": model,
            "meta": meta,
        }

    def prepare(self, state, gate):
        model, design = state["model"], state["design"]
        rows = _test_rows(design, N_FORECASTS)
        state["rows"] = rows
        state["expected"] = [estimator.predict_density(model, u).density for u in rows]
        gate.record("setup_fit", _model_problems(
            gate, "setup_fit", model, _test_rows(design, N_CHECK_ROWS)))

    def run_pass(self, state, session):
        path = state["model_path"]
        model = state["model"]
        session.op(
            "save", "model_save",
            lambda: persistence.save_model(path, "flexcode", model, state["meta"]),
            lambda _: [] if os.path.getsize(path) > 0 else ["empty model file"],
        )
        loaded = session.op(
            "load", "model_load",
            lambda: persistence.load_model(path),
            lambda got: _load_problems(got, model),
        )
        if loaded is not None:
            served = loaded[1]
            for r, u in enumerate(state["rows"]):
                session.op(
                    "forecast", "forecast_one",
                    lambda: (estimator.predict_density(served, u),
                             estimator.predict_quantiles(served, u, TAUS)),
                    lambda got: _forecast_problems(got, state["expected"][r]),
                )
        argv = ["evaluate", "--model", path, "--input", state["series"],
                "--oracle-scenario", "arma_jump", "-o", state["eval_path"]]
        session.op(
            "evaluate", "evaluate",
            lambda: _quiet_main(argv),
            lambda code: _evaluate_problems(session.gate, code, state["eval_path"]),
        )

    def details(self, samples):
        return {
            "forecast_one_ms": (samples.get("forecast_one", []), "ms", 1e3),
            "evaluate_s": (samples.get("evaluate", []), "s", 1.0),
            "model_save_s": (samples.get("model_save", []), "s", 1.0),
            "model_load_s": (samples.get("model_load", []), "s", 1.0),
        }

    def memory_probes(self, state):
        return {"persistence.load_model":
                lambda: persistence.load_model(state["model_path"])}


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _evaluate_problems(gate, code, out_path):
    if code != 0:
        return [f"flexts evaluate exited with {code}"]
    with open(out_path) as fh:
        return gate.fingerprint("evaluate", {"csv": fh.read()})


def _load_problems(got, model):
    method, loaded, _ = got
    if method != "flexcode":
        return [f"loaded method {method!r}"]
    if (loaded.i_selected, loaded.hyper) != (model.i_selected, model.hyper):
        return ["loaded model selects a different (hyper, I)"]
    return []


def _forecast_problems(got, expected):
    est, q = got
    problems = gates.density_problems(est.grid_y, est.density)
    problems += gates.quantile_problems(q)
    if not np.array_equal(est.density, expected):
        problems.append("density after save/load differs bitwise from the fitted model")
    return problems


class PaperGridWorkload(Workload):
    """The acceptance-criterion-4 grid: 3 scenarios x 3 methods, n=5000."""

    name = "paper-grid"
    SCENARIOS = ("nonlinear_mean", "nonlinear_variance", "ar")
    METHODS = ("flexcode", "nnkcde", "garch")
    # the latency metric follows the paper's estimator, one cell per
    # scenario; the baseline cells are the comparison, and garch's time
    # changes with the seed's data
    latency_keys = tuple(f"bench_flexcode/{scen}" for scen in SCENARIOS)
    N = 5000

    def setup(self, seed, workdir):
        # every bench cell simulates its own series: set-up is the imports alone
        return seed

    def run_pass(self, seed, session):
        for scen in self.SCENARIOS:
            for method in self.METHODS:
                cell = cli.BenchCell(scen, self.N, method, 3, seed)
                session.op(
                    f"bench_{method}", f"bench_{method}/{scen}",
                    lambda: cli.run_bench_cell(cell, backend="knn", i_max=60),
                    lambda row: _cell_problems(session.gate, f"bench {scen} {method}", row),
                )

    def details(self, samples):
        return {f"bench_{m}_s": ([t for scen in self.SCENARIOS
                                  for t in samples.get(f"bench_{m}/{scen}", [])], "s", 1.0)
                for m in self.METHODS}


def _cell_problems(gate, key, row):
    if row["status"] != "ok":
        return [f"status {row['status']!r}"]
    losses = [float(row["cde_loss"]), float(row["oracle_cde_loss"])]
    if not np.all(np.isfinite(losses)):
        return [f"non-finite losses {losses}"]
    fp = {
        "cde_loss": losses[0],
        "oracle_cde_loss": losses[1],
        "i_selected": "" if row["i_selected"] == "" else int(row["i_selected"]),
        "hyper": float(row["hyper"]),
    }
    return gate.fingerprint(key, fp)


WORKLOADS = {
    w.name: w
    for w in (FitWorkload(), ForecastWorkload(), PaperGridWorkload())
}
