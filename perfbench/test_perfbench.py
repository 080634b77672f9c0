"""Self-tests for the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate as gates  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402


def test_timing_summary_reports_p90_only_with_a_hundred_samples():
    few = measure.timing_summary([float(i) for i in range(99)])
    assert few == {"n": 99, "median": 49.0}
    many = measure.timing_summary([float(i) for i in range(100)])
    assert many["n"] == 100
    assert many["p90"] == pytest.approx(89.1)


def test_gmean_of_medians_weighs_every_group_the_same():
    groups = [[1.0, 100.0, 2.0], [8.0], [4.0, 4.0]]  # medians 2, 8, 4
    assert measure.gmean_of_medians(groups) == pytest.approx(4.0)
    # a group twice as slow moves the metric by the same factor, whatever its size
    slower = [[2.0, 200.0, 4.0], [8.0], [4.0, 4.0]]
    assert measure.gmean_of_medians(slower) == pytest.approx(4.0 * 2 ** (1 / 3))


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.4]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = measure.spread(values)
    assert s["n"] == 10
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert s["spread"] == pytest.approx((q3 - q1) / statistics.median(values))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # op [0, 20]; A [1, 15] holds B [2, 8] which holds C [3, 4]; D [16, 18]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 8, 15, 16, 18, 20]),
                        track_memory=False)
    tr.begin_op("fit")
    a = tr.enter("A")
    b = tr.enter("B")
    c = tr.enter("C")
    tr.exit(c)
    tr.exit(b)
    tr.exit(a)
    d = tr.enter("A")
    tr.exit(d)
    tr.end_op()
    selfs = tracing.self_times(tr.spans)
    assert selfs == {"A": (14 - 6) + 2, "B": 6 - 1, "C": 1}
    assert [s[3] for s in tr.spans] == [None, 0, 1, None]
    assert tracing.coverage(tr.spans, tr.ops) == {"fit": (14 + 2) / 20}


def test_rollback_drops_calls_after_the_checkpoint():
    tr = tracing.Tracer(track_memory=False)
    tr.begin_op("fit")
    tr.exit(tr.enter("A"))
    tr.end_op()
    tr.counters["A.calls"] += 1
    kept = ([list(s) for s in tr.spans], [list(o) for o in tr.ops], dict(tr.counters))
    mark = tr.checkpoint()
    tr.begin_op("fit")
    tr.exit(tr.enter("A"))
    tr.end_op()
    tr.counters["A.calls"] += 1
    tr.counters["B.calls"] += 1
    tr.rollback(mark)
    assert (tr.spans, tr.ops, dict(tr.counters)) == kept


def _bindings():
    import flexts.baselines
    import flexts.estimator
    import flexts.regression

    return {
        "regression": flexts.regression.pairwise_sq_dists,
        "baselines": flexts.baselines.pairwise_sq_dists,
        "estimator": flexts.estimator.nw_predict_grid,
        "method": flexts.regression.KnnModel.__dict__["predict"],
    }


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    assert before["regression"] is before["baselines"]
    tr = tracing.Tracer(track_memory=False)
    patched = tracing.install(tr)
    try:
        during = _bindings()
        for name in before:
            assert during[name] is not before[name], name
        assert during["regression"] is during["baselines"]
        import flexts.regression

        flexts.regression.pairwise_sq_dists(np.zeros((3, 2)), np.ones((4, 2)))
        with tracing.suspended(patched):
            assert _bindings() == before
            flexts.regression.pairwise_sq_dists(np.zeros((3, 2)), np.ones((4, 2)))
        assert _bindings() == during
    finally:
        tracing.uninstall(patched)
    after = _bindings()
    for name in before:
        assert after[name] is before[name], name
    assert tr.counters["regression.dist_cells"] == 12
    assert tr.counters["regression.pairwise_sq_dists.calls"] == 1
    assert [s[0] for s in tr.spans] == ["regression.pairwise_sq_dists"]


def test_peak_allocation_of_nested_spans():
    tr = tracing.Tracer()
    outer = tr.enter("outer", peak=True)
    block = np.ones(2_000_000)  # 16 MB held by the outer span
    inner = tr.enter("inner", peak=True)
    tmp = np.ones(1_000_000)  # 8 MB, freed inside the inner span
    del tmp
    tr.exit(inner, peak=True)
    tr.exit(outer, peak=True)
    del block
    assert tr.peak_mb["inner"] == pytest.approx(8.0, abs=0.5)
    assert tr.peak_mb["outer"] == pytest.approx(24.0, abs=0.5)


def test_gate_flags_a_perturbed_reference_value():
    fp = {"hyper_index": 3, "i_selected": 12, "val_loss": -1.25, "csv": "a,b\n1,2\n"}
    assert gates.Gate({"fit": dict(fp)}).fingerprint("fit", dict(fp)) == []
    near = dict(fp, val_loss=-1.25 * (1 + 1e-12))
    assert gates.Gate({"fit": dict(fp)}).fingerprint("fit", near) == []
    for key, value in (("val_loss", -1.25 * (1 + 1e-6)), ("i_selected", 13),
                       ("csv", "a,b\n1,3\n")):
        gate = gates.Gate({"fit": dict(fp, **{key: value})}, stream=None)
        problems = gate.fingerprint("fit", dict(fp))
        assert len(problems) == 1 and problems[0].startswith(key)
        gate.record("fit", problems)
        assert (gate.attempted, gate.failed) == (1, 1)


def test_gate_flags_disagreement_between_passes_without_reference():
    gate = gates.Gate(None)
    assert gate.fingerprint("fit", {"val_loss": 1.0}) == []
    assert gate.fingerprint("fit", {"val_loss": 1.0}) == []
    assert gate.fingerprint("fit", {"val_loss": 1.0 + 1e-15}) != []


def test_density_and_quantile_invariants():
    grid = np.linspace(0.0, 1.0, 101)
    good = np.ones((2, grid.size))
    assert gates.density_problems(grid, good) == []
    assert gates.density_problems(grid, good * 1.001) != []
    bad = good.copy()
    bad[0, 5] = -1e-3
    assert gates.density_problems(grid, bad) != []
    assert gates.quantile_problems([[0.1, 0.2, 0.2]]) == []
    assert gates.quantile_problems([[0.1, 0.3, 0.2]]) != []


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(tracing.LAYER_METRICS)
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    assert set(layer_map) <= {name for name, _, _ in tracing.LAYER_METRICS}


def test_layer_map_names_only_layers_the_workload_reaches():
    """A layer said to move metric@workload reads nonzero in that workload's traced baseline."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    traced = json.loads((BENCH_DIR / "baseline.json").read_text())["per_layer"]
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    for layer, entry in layer_map.items():
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            assert metric in metrics and workload in workloads, (layer, target)
            assert traced[workload][layer] != 0, (layer, target)
        for workload in entry["no_change"]:
            assert workload in workloads, (layer, workload)
