"""Correctness gate: every timed operation is checked before it counts.

An operation fails when it raises, when its output breaks a density or
quantile invariant, or when its fingerprint (selected hyperparameter,
cutoff, losses, evaluate CSV text) differs from the reference recorded
at the seed commit for this workload seed, or from the same operation
earlier in the run.
"""

import math
import sys

import numpy as np

MASS_TOL = 1e-8
RTOL = 1e-9


def density_problems(grid_y, density):
    """Rows must be finite, nonnegative and integrate to one on the grid."""
    density = np.atleast_2d(density)
    if not np.all(np.isfinite(density)):
        return ["density has non-finite values"]
    if (density < 0.0).any():
        return [f"density has negative values (min {density.min():.3g})"]
    mass = np.trapezoid(density, grid_y, axis=1)
    worst = float(np.abs(mass - 1.0).max())
    if worst > MASS_TOL:
        return [f"density mass off by {worst:.3g} (tolerance {MASS_TOL:g})"]
    return []


def quantile_problems(quantiles):
    """Quantiles must be finite and nondecreasing in tau (last axis)."""
    q = np.atleast_2d(quantiles)
    if not np.all(np.isfinite(q)):
        return ["quantiles have non-finite values"]
    if (np.diff(q, axis=1) < 0.0).any():
        return ["quantiles decrease in tau"]
    return []


def mismatches(actual, expected, rtol=RTOL):
    """Differences between two fingerprints; floats compare with rtol."""
    problems = []
    for key in sorted(set(actual) | set(expected)):
        if key not in actual or key not in expected:
            problems.append(f"{key}: present in only one of result and reference")
            continue
        a, e = actual[key], expected[key]
        if isinstance(e, float) and isinstance(a, float):
            same = (math.isnan(a) and math.isnan(e)) or math.isclose(
                a, e, rel_tol=rtol, abs_tol=0.0)
        else:
            same = a == e
        if not same:
            problems.append(f"{key}: got {a!r}, reference {e!r}")
    return problems


class Gate:
    """Counts attempted and failed operations and says why each failed.

    ``reference`` maps an operation key to its seed-commit fingerprint;
    None means this workload seed has no recorded reference, and only the
    invariants and the agreement between passes are checked.
    """

    def __init__(self, reference=None, stream=sys.stderr):
        self.reference = reference
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._stream = stream

    def fingerprint(self, key, fp):
        """Problems of one fingerprint against the reference and earlier passes."""
        problems = []
        if self.reference is not None:
            if key in self.reference:
                problems += mismatches(fp, self.reference[key])
            else:
                problems.append(f"no reference entry for {key!r}")
        if key in self.seen:
            problems += [f"differs from an earlier pass: {p}"
                         for p in mismatches(fp, self.seen[key], rtol=0.0)]
        else:
            self.seen[key] = fp
        return problems

    def record(self, key, problems):
        """Count one attempted operation; it failed if problems is nonempty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for reason in problems:
                self.failures.append((key, reason))
                print(f"FAIL {key}: {reason}", file=self._stream)
