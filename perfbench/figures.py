"""The benchmark's own arithmetic: percentiles, weight ratio and spread."""

from __future__ import annotations

import math
import statistics


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * N)-th smallest value.

    It is always one of the measured values; p90 of 100 samples is the 90th
    smallest, which leaves ten samples beyond it.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(p / 100 * len(ordered)) - 1]


def weight_ratio(output_weights, reference_weights):
    """Summed output weight over summed reference weight."""
    return sum(output_weights) / sum(reference_weights)


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
