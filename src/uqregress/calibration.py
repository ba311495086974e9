"""Calibration curves, miscalibration area, and adversarial group calibration.

The curve follows the quantile-based construction: normalized residuals
z = (y - mu)/sigma are pushed through the standard normal CDF, and for each
expected proportion p the observed proportion is the fraction of points with
Φ(z) <= p. For a perfectly specified Gaussian model Φ(z) is uniform and the
curve hugs the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PredictionSet, RngSeed, validate_prediction_set
from .errors import AllSigmaZeroError, DomainError, FractionTooSmallError
from .numerics import std_normal_cdf

DEFAULT_GRID_SIZE = 99


@dataclass(frozen=True)
class CalibrationCurve:
    """Expected-vs-observed proportion pairs plus the miscalibration area."""

    expected: np.ndarray
    observed: np.ndarray
    miscalibration_area: float
    n_used: int
    n_excluded_zero_sigma: int


@dataclass(frozen=True)
class AdversarialCurve:
    """Mean worst-subgroup miscalibration area per subgroup fraction."""

    group_fractions: np.ndarray
    mean_worst_area: np.ndarray
    std_error: np.ndarray
    trials: int
    subgroups_per_trial: int


def normalized_residuals(p: PredictionSet) -> np.ndarray:
    """z_i = (y_i - mu_i) / sigma_i, with +Inf sentinel where sigma_i == 0.

    Sentinel entries are excluded from curve construction downstream; the
    exclusion count is carried on the resulting curve.
    """
    validate_prediction_set(p)
    return _residual_ratio(p.y_true - p.mu, p.sigma)


def _residual_ratio(residual: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    z = np.full(residual.shape[0], np.inf, dtype=np.float64)
    np.divide(residual, sigma, out=z, where=sigma > 0.0)
    return z


def _expected_grid(grid_size: int) -> np.ndarray:
    if grid_size < 1:
        raise DomainError(f"grid_size must be >= 1, got {grid_size}")
    return np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)


def _observed_proportions(phi_sorted: np.ndarray, expected: np.ndarray) -> np.ndarray:
    counts = np.searchsorted(phi_sorted, expected, side="right")
    return counts.astype(np.float64) / phi_sorted.size


def _area_between(expected: np.ndarray, observed: np.ndarray) -> float:
    # trapezoid of |observed - expected| over [0, 1] with implicit (0,0), (1,1)
    x = np.concatenate(([0.0], expected, [1.0]))
    y = np.concatenate(([0.0], np.abs(observed - expected), [0.0]))
    return float(np.trapezoid(y, x))


def calibration_curve(p: PredictionSet, grid_size: int = DEFAULT_GRID_SIZE) -> CalibrationCurve:
    """Quantile-based calibration curve on a uniform interior grid.

    Expected proportions are j/(grid_size+1) for j = 1..grid_size; observed
    proportions count Φ(z_i) <= p_j among the sigma > 0 points. The area is
    the trapezoidal integral of |observed - expected| including the implicit
    (0,0) and (1,1) endpoints.
    """
    expected, observed, n_used = _curve_from_residuals(normalized_residuals(p), grid_size)
    return CalibrationCurve(
        expected=expected,
        observed=observed,
        miscalibration_area=_area_between(expected, observed),
        n_used=n_used,
        n_excluded_zero_sigma=p.n - n_used,
    )


def _curve_from_residuals(z: np.ndarray, grid_size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(expected, observed, n_used) over the finite entries of ``z``."""
    finite = np.isfinite(z)
    n_used = int(finite.sum())
    if n_used == 0:
        raise AllSigmaZeroError("every sigma is zero; no calibration curve exists")
    if n_used < 2:
        raise DomainError(f"need >= 2 points with sigma > 0, got {n_used}")
    phi_sorted = np.sort(std_normal_cdf(z[finite]))
    expected = _expected_grid(grid_size)
    return expected, _observed_proportions(phi_sorted, expected), n_used


def adversarial_group_calibration(
    p: PredictionSet,
    fractions,
    trials: int = 100,
    subgroups: int = 10,
    seed: RngSeed = RngSeed(0),
    grid_size: int = DEFAULT_GRID_SIZE,
) -> AdversarialCurve:
    """Worst-subgroup miscalibration area across subgroup sizes.

    For each fraction f: in each of ``trials`` trials, draw ``subgroups``
    random subsets of size round(f*n) (sampling without replacement within a
    subset; different subsets may overlap) and keep the largest
    miscalibration area. Reported per fraction: mean of those maxima and
    standard error = std(maxima, ddof=1)/sqrt(trials).

    Each (fraction, trial) pair runs on its own derived RNG stream, so the
    result is independent of evaluation order.
    """
    validate_prediction_set(p)
    fracs = np.asarray(fractions, dtype=np.float64).ravel()
    if fracs.size == 0:
        raise DomainError("need at least one fraction")
    if np.any(fracs <= 0.0) or np.any(fracs > 1.0):
        raise DomainError("fractions must lie in (0, 1]")
    if trials < 1 or subgroups < 1:
        raise DomainError("trials and subgroups must be >= 1")

    z = normalized_residuals(p)
    finite = np.isfinite(z)
    if not finite.any():
        raise AllSigmaZeroError("every sigma is zero; no calibration curve exists")
    phi = np.full(p.n, np.nan, dtype=np.float64)
    phi[finite] = std_normal_cdf(z[finite])
    expected = _expected_grid(grid_size)

    sizes = np.rint(fracs * p.n).astype(int)
    for f, size in zip(fracs, sizes):
        if size < 2:
            raise FractionTooSmallError(f"fraction {f} gives subgroup size {size} < 2")

    mean_worst = np.empty(fracs.size)
    std_err = np.empty(fracs.size)
    for fi, size in enumerate(sizes):
        maxima = np.empty(trials)
        for t in range(trials):
            rng = seed.derive(fi, t).generator()
            worst = -np.inf
            for _ in range(subgroups):
                idx = rng.choice(p.n, size=size, replace=False)
                sub = phi[idx]
                sub = sub[np.isfinite(sub)]
                if sub.size < 2:
                    raise AllSigmaZeroError(
                        f"subgroup of size {size} has {sub.size} usable points (sigma > 0)"
                    )
                observed = _observed_proportions(np.sort(sub), expected)
                worst = max(worst, _area_between(expected, observed))
            maxima[t] = worst
        mean_worst[fi] = maxima.mean()
        std_err[fi] = 0.0 if trials < 2 else float(np.std(maxima, ddof=1) / np.sqrt(trials))
    return AdversarialCurve(
        group_fractions=fracs,
        mean_worst_area=mean_worst,
        std_error=std_err,
        trials=trials,
        subgroups_per_trial=subgroups,
    )
