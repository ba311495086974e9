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
# rows scored at every level before the next rows are read: a block's working
# buffers (five of 64 KiB) stay in cache across the 99 levels
BLOCK_ROWS = 8192


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
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
    penalty = 2.0 / miss

    per_point = np.empty(p.n, dtype=np.float64)
    abs_resid, half, over = (np.empty(min(p.n, BLOCK_ROWS)) for _ in range(3))
    # each point's total adds 2h + (2/a)·max(|r| - h, 0) level by level, in
    # the level order and with the operations of a whole-column pass
    for lo in range(0, p.n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, p.n)
        r, h, q = abs_resid[:hi - lo], half[:hi - lo], over[:hi - lo]
        sigma, total = p.sigma[lo:hi], per_point[lo:hi]
        np.abs(np.subtract(p.y_true[lo:hi], p.mu[lo:hi], out=r), out=r)
        total.fill(0.0)
        for pen, zq in zip(penalty, half_width_z):
            np.multiply(zq, sigma, out=h)
            np.maximum(np.subtract(r, h, out=q), 0.0, out=q)
            q *= pen
            h *= 2.0
            h += q
            total += h
        total /= COVERAGE_GRID.size
    return IntervalScoreReport(mean_score=float(per_point.mean()), per_point_scores=per_point)
