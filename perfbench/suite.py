"""Run benchmark workloads repeatedly and summarise their steadiness.

    python3 perfbench/suite.py                       # every workload once
    python3 perfbench/suite.py --runs 10 --seed0 0   # ten seeds per workload
    python3 perfbench/suite.py --traced-twice        # exact counts repeat?

Each run is a separate ``run.py`` process, started only after the
previous one has ended. For every workload the suite prints each
end-to-end metric's median, quartiles and spread ((q3 - q1) / median,
quartiles as statistics.quantiles gives them) next to its bound from
BENCHMARK.json, the named per-operation timings with their sample
counts, and the error rate. ``--traced-twice`` runs the traced
invocation twice on one seed per workload and compares every count
metric, which must repeat exactly. ``--write-baseline`` stores the
summaries in perfbench/baseline.json. The exit status is 1 when any run
fails, reports an incorrect result or a spread above a third of its
bound, or when a count does not repeat.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = BENCH_DIR / "baseline.json"
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace):
    """One run.py process; returns (result line, detail record)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = (BENCH_DIR / ".work" / "results"
                   / f"{workload}-seed{seed}-trace{trace}.json")
    return line, json.loads(record_path.read_text())


def summarise(workload, runs):
    """Print and return the spread of every end-to-end and named metric."""
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    out = {"seeds": [r["env"]["seed"] for _, r in runs], "end_to_end": {},
           "details": {}}
    steady = True
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"  {'metric':<22} {'unit':<5} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  samples/run")
    for name, m in bounds.items():
        values = [line["metrics"][name]["value"] for line, _ in runs]
        s = measure.spread(values)
        n = sorted({r["end_to_end"][name]["n"] for _, r in runs})
        ok = s["spread"] < m["bound"] / 3
        steady &= ok
        print(f"  {name:<22} {m['unit']:<5} {s['median']:>11.5g} {s['q1']:>11.5g} "
              f"{s['q3']:>11.5g} {s['spread']:>7.4f} {m['bound']:>6}  {n}"
              f"{'' if ok else '  above bound/3'}")
        out["end_to_end"][name] = {**s, "unit": m["unit"], "samples_per_run": n}
    for name in runs[0][1]["details"]:
        per_run = [r["details"][name] for _, r in runs if name in r["details"]]
        for stat in ("median", "p90"):
            values = [d[stat] for d in per_run if stat in d]
            if not values:
                continue
            s = measure.spread(values)
            label = (f"{name}_{'p50' if stat == 'median' else 'p90'}"
                     if name.endswith("_ms") else name)
            unit = per_run[0]["unit"]
            n = sorted({d["n"] for d in per_run})
            print(f"  {label:<22} {unit:<5} {s['median']:>11.5g} {s['q1']:>11.5g} "
                  f"{s['q3']:>11.5g} {s['spread']:>7.4f} {'':>6}  {n}")
            out["details"][label] = {**s, "unit": unit, "samples_per_run": n}
    attempted = sum(line["attempted"] for line, _ in runs)
    failed = sum(line["failed"] for line, _ in runs)
    out["error_rate"] = failed / attempted
    print(f"  error_rate {out['error_rate']:.6g} ({failed}/{attempted} operations)")
    return out, steady and failed == 0


def traced_twice(workload, seed, seconds):
    """Two traced runs on one seed; every count metric must repeat exactly."""
    (a, _), (b, _) = (run_once(workload, seed, seconds, 1) for _ in range(2))
    print(f"\n== {workload}: per-layer metrics, two traced runs on seed {seed}")
    same = True
    for name, unit, _ in tracing.LAYER_METRICS:
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        exact = name in tracing.EXACT_COUNTS
        tag = ""
        if exact:
            tag = "repeats" if va == vb else "DIFFERS"
            same &= va == vb
        print(f"  {name:<46} {unit:<6} {va:>14.6g} {vb:>14.6g}  {tag}")
    correct = a["correct"] and b["correct"]
    return {name: a["metrics"][name]["value"] for name, _, _ in tracing.LAYER_METRICS}, \
        same and correct


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed0", type=int, default=0, help="runs use seed0, seed0+1, ...")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--traced-twice", action="store_true")
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()

    ok = True
    summaries = {}
    for workload in args.workloads.split(","):
        if args.traced_twice:
            summaries[workload], good = traced_twice(workload, args.seed0, args.seconds)
        else:
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + i
                line, record = run_once(workload, seed, args.seconds, 0)
                print(f"{workload} seed {seed}: correct={line['correct']} "
                      f"failed={line['failed']}/{line['attempted']} "
                      + " ".join(f"{k}={v['value']:.5g}{v['unit']}"
                                 for k, v in line["metrics"].items()), flush=True)
                runs.append((line, record))
            summaries[workload], good = summarise(workload, runs)
            summaries[workload]["env"] = runs[0][1]["env"]
        ok &= good

    if args.write_baseline:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        key = "per_layer" if args.traced_twice else "end_to_end"
        baseline.setdefault(key, {}).update(summaries)
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
