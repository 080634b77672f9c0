"""Record the correctness-gate reference for workload seeds.

    python3 perfbench/record.py --seeds 0-19,977

Runs one set-up and one pass of every workload per seed and stores each
operation's fingerprint in perfbench/reference.json. Run it only on the
commit whose outputs are the reference (the file names that commit);
any later commit is checked against what it wrote.
"""

import argparse
import json
import os
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-19,977")
    p.add_argument("--workloads", help="comma list; default all")
    args = p.parse_args()
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)
    import warnings

    import gate as gates
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    if run.REFERENCE.is_file():
        reference = json.loads(run.REFERENCE.read_text())
    else:
        reference = {"workloads": {}}
    reference["commit"] = run.source_commit()
    reference["src_sha256"] = run.source_digest()
    for name in names:
        wl = workloads.WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            gate = gates.Gate(None)
            state = wl.setup(seed, run.workdir(wl.name))
            wl.prepare(state, gate)
            wl.run_pass(state, workloads.Session(gate))
            if gate.failed:
                raise SystemExit(f"{name} seed {seed}: invariant failures, not recorded")
            reference["workloads"].setdefault(name, {})[str(seed)] = gate.seen
            print(f"recorded {name} seed {seed}: {len(gate.seen)} fingerprints",
                  flush=True)
            run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
