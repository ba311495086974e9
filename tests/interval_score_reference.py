"""Reference tightness: ``uqregress.scoring.interval_score`` as it stood
with two one-sided hinges per coverage level.

Each level charged its width plus 2/a times the sum of a below-the-interval
hinge max(-half - r, 0) and an above-the-interval hinge max(r - half, 0).
``interval_score`` must give the same per-point scores and the same mean,
bit for bit, sign bits and non-finite values included.
"""

from __future__ import annotations

import numpy as np

from uqregress.core import PredictionSet, validate_prediction_set
from uqregress.numerics import std_normal_quantile
from uqregress.scoring import COVERAGE_GRID


@np.errstate(over="ignore", invalid="ignore")
def interval_score(p: PredictionSet) -> tuple[float, np.ndarray]:
    """(mean score, per-point scores) of the two-hinge loop."""
    validate_prediction_set(p)
    miss = 1.0 - COVERAGE_GRID
    half_width_z = std_normal_quantile(1.0 - miss / 2.0)

    resid = p.y_true - p.mu
    totals = np.zeros(p.n, dtype=np.float64)
    for a, zq in zip(miss, half_width_z):
        half = zq * p.sigma
        below = np.maximum(-half - resid, 0.0)   # y < lower bound
        above = np.maximum(resid - half, 0.0)    # y > upper bound
        totals += 2.0 * half + (2.0 / a) * (below + above)
    per_point = totals / COVERAGE_GRID.size
    return float(per_point.mean()), per_point
