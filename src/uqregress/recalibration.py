"""Scalar recalibration: one positive multiplier on every sigma.

The multiplier minimizes the miscalibration area of the rescaled prediction
set. The search runs in log-space over [bracket_lo, bracket_hi] — the area is
empirically unimodal in ln(s) but not provably so, so a coarse 25-point
pre-scan picks the best cell before Brent refines inside it.

Each trial area is counted in z-space (the construction of Uncertainty
Toolbox, Chung et al. 2021, for the recalibration search of Kuleshov et al.
2018): Φ(z/s) <= p exactly when z <= s·Φ⁻¹(p), so the residual ratios are
sorted once and every scale is one ``searchsorted`` against s times the ~99
grid quantiles, with no Φ and no sort per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import DEFAULT_GRID_SIZE, _area_between, _curve_rows, calibration_curve
from .core import PredictionSet, validate_prediction_set
from .errors import DomainError, NonPositiveScalarError
from .numerics import BrentResult, brent_minimize, std_normal_quantile

PRESCAN_POINTS = 25
BRENT_TOL = 1e-6  # absolute tolerance on ln(s)
BRENT_MAX_ITER = 200


@dataclass(frozen=True)
class RecalibrationResult:
    scalar: float
    area_before: float
    area_after: float
    brent: BrentResult
    grid_size: int


def _check_scalar(s: float) -> float:
    if not np.isfinite(s) or s <= 0.0:
        raise NonPositiveScalarError(f"scalar must be finite and > 0, got {s}")
    return float(s)


@np.errstate(over="ignore")  # a huge sigma times s is +inf, which validation rejects
def apply_scalar(p: PredictionSet, s: float) -> PredictionSet:
    """Multiply every sigma by ``s``; mu and y_true are untouched."""
    return p.with_sigma(p.sigma * _check_scalar(s))


@np.errstate(over="ignore")
def fit_scalar(
    p: PredictionSet,
    bracket_lo: float = 1e-3,
    bracket_hi: float = 1e3,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> RecalibrationResult:
    """Fit the sigma multiplier that minimizes miscalibration area.

    ``p`` is validated once, its sigma > 0 residual ratios z are sorted once,
    and the grid's quantiles q = Φ⁻¹(expected) are taken once. The area at a
    scale s counts, at each grid value, the points with z <= s·q: the points
    ``calibration_curve(apply_scalar(p, s), grid_size)`` counts with
    Φ(z/s) <= expected. The areas are therefore that curve's areas unless a
    point lies within a few ulps of a grid quantile (or sigma·s underflows to
    0, which the curve would exclude). The errors are the curve's: sigma == 0
    points are excluded, fewer than 2 sigma > 0 points raise
    AllSigmaZeroError, and a scale at which sigma·s overflows raises what
    validating it raises.

    Brent then refines ln(s) inside the best pre-scan cell to ``BRENT_TOL``,
    in at most ``BRENT_MAX_ITER`` iterations. The returned scalar is never
    worse in area than the best pre-scan point; with the default symmetric
    bracket the pre-scan includes s = 1 exactly, so the fit can only improve
    on the uncalibrated area.
    A non-converged Brent run is reported via ``brent.converged`` rather than
    raised; the best point found is still returned.
    """
    _, z_used, expected = _curve_rows(p, grid_size)
    if not 0.0 < bracket_lo < bracket_hi < np.inf:  # NaN fails too
        raise DomainError(f"invalid bracket [{bracket_lo}, {bracket_hi}]: "
                          "need 0 < bracket_lo < bracket_hi < inf")
    q = std_normal_quantile(expected)
    z_sorted = np.sort(z_used)
    sigma_max = float(p.sigma.max())

    def area_at(t: float) -> float:
        s = _check_scalar(float(np.exp(t)))
        if not np.isfinite(sigma_max * s):  # overflowed: raise what validation raises
            validate_prediction_set(p.with_sigma(p.sigma * s))
        observed = np.searchsorted(z_sorted, s * q, side="right") / z_sorted.size
        return float(_area_between(expected, observed))

    t_lo, t_hi = float(np.log(bracket_lo)), float(np.log(bracket_hi))
    scan_t = np.linspace(t_lo, t_hi, PRESCAN_POINTS)
    scan_area = np.array([area_at(t) for t in scan_t])
    best = int(np.argmin(scan_area))
    cell_lo = scan_t[max(best - 1, 0)]
    cell_hi = scan_t[min(best + 1, PRESCAN_POINTS - 1)]

    brent = brent_minimize(area_at, cell_lo, cell_hi, tol=BRENT_TOL, max_iter=BRENT_MAX_ITER)
    if brent.value <= scan_area[best]:
        t_star, area_after = brent.argmin, brent.value
    else:  # keep the incumbent if Brent stalled on a flat/multimodal cell
        t_star, area_after = float(scan_t[best]), float(scan_area[best])

    area_before = calibration_curve(p, grid_size).miscalibration_area
    return RecalibrationResult(
        scalar=float(np.exp(t_star)),
        area_before=area_before,
        area_after=float(area_after),
        brent=brent,
        grid_size=grid_size,
    )
