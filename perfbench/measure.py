"""Order statistics for benchmark timings."""

import math
import statistics


def timing_summary(values):
    """Median and sample count, plus p90 when at least ten samples lie above it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 100:
        # "inclusive" interpolates linearly, as numpy's default percentile does
        out["p90"] = statistics.quantiles(values, n=10, method="inclusive")[8]
    return out


def gmean_of_medians(groups):
    """Geometric mean of each group's median: every group weighs the same."""
    medians = [statistics.median(g) for g in groups]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def spread(values):
    """Median, quartiles and (q3 - q1) / median, quartiles as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med, "q1": med, "q3": med,
                "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}
