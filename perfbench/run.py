"""Run one flexts benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-n20k --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source checkout; flexts is imported from the
checkout's ``src`` directory. The process runs whole passes of the
workload until the next pass would end past ``--seconds`` (at least one
pass), checks every operation, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
``setup_s`` is the median wall time of fresh processes that only import
and set up (``--setup-only``). With ``--trace 1`` the run makes one
traced set-up and pass, in which every operation also runs untraced as
a warm-up and in traced/untraced pairs for ``trace.overhead``, and
reports the per-layer metrics. Lines before the last describe the environment and
the named per-operation timings; the same record, and a traced run's
spans, are written under ``perfbench/.work/results``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3


def nproc():
    return len(os.sched_getaffinity(0))


def pin_threads():
    """Pin every BLAS/OpenMP pool to one thread; must run before numpy is imported.

    The benchmark is one single-threaded caller. On a 2-core box a second
    OpenBLAS thread spins between calls (an 8 s NNKCDE cell burnt ~3 s
    more CPU) and made wall times wander more than one thread did, and
    one thread also keeps the numbers independent of nproc.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up the workload, then exit (timed for setup_s)")
    return p.parse_args(argv)


def source_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    """sha256 over src/flexts/*.py, which names the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "flexts").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, blas_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "commit": source_commit(),
        "src_sha256": source_digest(),
    }


def load_reference(workload, seed):
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["workloads"].get(workload, {}).get(str(seed))


def workdir(name):
    """Scratch directory of a workload, relative to the checkout root (the cwd).

    Relative, because flexts evaluate writes the model path into its CSV,
    which the gate compares byte for byte.
    """
    return (WORK / name).relative_to(ROOT)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(args):
    """Wall time of fresh processes that start, import and set up the workload.

    A process imports only once, so set-up is repeated in processes of its
    own and the median of their times is setup_s.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_untraced(wl, args, session):
    setups = setup_seconds(args)
    state = wl.setup(args.seed, workdir(wl.name))
    wl.prepare(state, session.gate)

    pass_op_s, pass_wall = [], []
    begin = time.perf_counter()
    while True:
        before = session.counts()
        start = time.perf_counter()
        wl.run_pass(state, session)
        pass_wall.append(time.perf_counter() - start)
        pass_op_s.append(session.pass_seconds(before))
        elapsed = time.perf_counter() - begin
        if (len(pass_wall) >= wl.min_passes
                and elapsed + statistics.median(pass_wall) > args.seconds):
            break

    groups = [session.samples.get(key, []) for key in wl.latency_keys]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(pass_op_s), "s"),
        # an operation is missing only when it failed every time
        "op_gmean_ms": (measure.gmean_of_medians(groups) * 1e3 if all(groups) else 0.0,
                        "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    counts = {"setup_s": len(setups), "pass_s": len(pass_op_s),
              "op_gmean_ms": sum(len(g) for g in groups), "peak_rss_mb": 1}
    return metrics, counts


def run_traced(wl, args, session_cls, gate):
    import tracing

    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        tracer.begin_op("setup")
        state = wl.setup(args.seed, workdir(wl.name))
        tracer.end_op()
        tracer.recording = False
        wl.prepare(state, gate)
        tracer.recording = True
        traced = session_cls(gate, tracer, untraced=lambda: tracing.suspended(patched),
                             overhead_pairs=wl.overhead_pairs)
        wl.run_pass(state, traced)
    finally:
        tracing.uninstall(patched)
    for layer, fn in wl.memory_probes(state).items():
        tracing.measure_peak(tracer, layer, fn)
    overhead = traced.traced_seconds / traced.untraced_seconds
    return tracing.layer_metrics(tracer, overhead), traced, tracer


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "flexts" / "__init__.py").is_file():
        print(f"perfbench: no flexts sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"perfbench: reference file {REFERENCE} is missing", file=sys.stderr)
        return 2
    blas_threads = pin_threads()
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    import warnings

    import gate as gates
    import workloads

    # fits that select I = i_max and similar conditions warn; they are not failures
    warnings.simplefilter("ignore", RuntimeWarning)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed, workdir(wl.name))
        return 0
    reference = load_reference(wl.name, args.seed)
    if reference is None:
        print(f"perfbench: no seed-commit reference for {wl.name} seed {args.seed}; "
              "checking invariants and pass-to-pass agreement only", file=sys.stderr)
    gate = gates.Gate(reference)
    env = environment(args, blas_threads)

    record = {"env": env, "reference_checked": reference is not None}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, session, tracer = run_traced(wl, args, workloads.Session, gate)
        record["per_layer"] = {k: v["value"] for k, v in metrics.items()}
        spans = {"span_fields": ["name", "start", "end", "parent", "op"],
                 "op_fields": ["kind", "start", "end"],
                 "ops": tracer.ops, "spans": tracer.spans}
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    else:
        session = workloads.Session(gate)
        values, counts = run_untraced(wl, args, session)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        record["end_to_end"] = {k: {"value": v, "unit": u, "n": counts[k]}
                                for k, (v, u) in values.items()}

    details = {}
    for name, (samples, unit, scale) in wl.details(session.samples).items():
        if samples:
            summary = measure.timing_summary([s * scale for s in samples])
            details[name] = {"unit": unit, **summary}
    record["details"] = details
    record["attempted"] = gate.attempted
    record["failed"] = gate.failed
    record["error_rate"] = gate.failed / max(gate.attempted, 1)
    record["failures"] = [f"{k}: {r}" for k, r in gate.failures]

    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, rec in record.get("end_to_end", {}).items():
        print(f"# {name:<24} {rec['value']:.6g} {rec['unit']} (n={rec['n']})")
    for name, d in details.items():
        p90 = f" p90 {d['p90']:.6g}" if "p90" in d else ""
        print(f"# {name:<24} median {d['median']:.6g}{p90} {d['unit']} (n={d['n']})")
    print(f"# error_rate {record['error_rate']:.6g} ({gate.failed}/{gate.attempted})")

    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    line = {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
