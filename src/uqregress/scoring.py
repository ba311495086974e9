"""Tightness: the negatively oriented mean interval score.

Central Gaussian intervals mu ± h, h = Φ⁻¹(1 - a/2)·sigma, are drawn at
coverages 1%..99% in 1% steps. Each level scores 2h + (2/a)·max(|y - mu| - h, 0):
the width plus one hinge penalty for missing the truth; lower is tighter. Each
point is scored by its mean over the 99 levels, the set by the mean of those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PredictionSet, validate_prediction_set
from .errors import DomainError
from .numerics import std_normal_quantile

COVERAGE_GRID = np.round(np.arange(1, 100) / 100.0, 2)


@dataclass(frozen=True)
class IntervalScoreReport:
    mean_score: float
    per_point_scores: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # finite inputs above ~1e154 give inf/nan
def interval_score(p: PredictionSet) -> IntervalScoreReport:
    """Negatively oriented mean interval score of a prediction set.

    sigma == 0 points degenerate gracefully: zero width, penalty term only
    (the finite coverage grid keeps every 2/a factor finite).
    """
    validate_prediction_set(p)
    if p.n < 1:
        raise DomainError("interval_score needs n >= 1")
    miss = 1.0 - COVERAGE_GRID  # a = 1 - coverage
    half_width_z = std_normal_quantile(1.0 - miss / 2.0)

    abs_resid = np.abs(p.y_true - p.mu)
    totals = np.zeros(p.n, dtype=np.float64)
    # accumulate level by level: O(n) memory instead of n x levels
    for a, zq in zip(miss, half_width_z):
        half = zq * p.sigma
        totals += 2.0 * half + (2.0 / a) * np.maximum(abs_resid - half, 0.0)
    per_point = totals / COVERAGE_GRID.size
    return IntervalScoreReport(mean_score=float(per_point.mean()), per_point_scores=per_point)
