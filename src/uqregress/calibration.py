"""Calibration curves, miscalibration area, and adversarial group calibration.

The curve follows the quantile-based construction: normalized residuals
z = (y - mu)/sigma are pushed through the standard normal CDF, and for each
expected proportion p the observed proportion is the fraction of points with
Φ(z) <= p. For a perfectly specified Gaussian model Φ(z) is uniform and the
curve hugs the diagonal.

Each point is binned once: its bin is the index of the first grid value at or
above its Φ(z), so it counts at that grid value and every later one, and a
curve over any subset of points is a cumulative count of their bins. Only
sigma == 0 points are left out, and with fewer than two sigma > 0 points no
curve exists (AllSigmaZeroError). A sigma > 0 point whose z overflows to ±inf
has Φ(z) = 1 or 0 and counts like any other. ``recalibration.fit_scalar``
counts the same comparison in z-space, z <= Φ⁻¹(p); the two agree unless a
point lies within a few ulps of a grid quantile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PredictionSet, RngSeed, check_count, check_size, validate_prediction_set
from .errors import AllSigmaZeroError, DomainError, FractionTooSmallError
from .numerics import std_normal_cdf

DEFAULT_GRID_SIZE = 99
_AREA_ROWS = 64  # the most subgroup curves the adversarial sweep holds at once


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class CalibrationCurve:
    """Expected-vs-observed proportion pairs plus the miscalibration area."""

    expected: np.ndarray
    observed: np.ndarray
    miscalibration_area: float
    n_used: int
    n_excluded_zero_sigma: int


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
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
    exclusion count is carried on the resulting curve. A sigma > 0 point
    whose ratio overflows is ±Inf as well, but it is not excluded: callers
    tell the two apart by sigma, not by z.
    """
    validate_prediction_set(p)
    return _residual_ratio(p)


def _residual_ratio(p: PredictionSet) -> np.ndarray:
    z = np.full(p.n, np.inf, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing z is a valid ±inf
        np.divide(p.y_true - p.mu, p.sigma, out=z, where=p.sigma > 0.0)
    return z


def _curve_rows(p: PredictionSet, grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The preamble of every curve: ``p`` validated once, the sigma > 0 mask,
    those rows' residual ratios, and the expected grid.

    A curve needs at least 2 sigma > 0 points; with fewer, AllSigmaZeroError.
    """
    # the grid is checked first, so its error does not depend on the data
    grid_size = check_size(check_count(grid_size, "grid_size", 1), "grid_size")
    validate_prediction_set(p)
    used = p.sigma > 0.0
    n_used = int(np.count_nonzero(used))
    if n_used == 0:
        raise AllSigmaZeroError("every sigma is zero; no calibration curve exists")
    if n_used < 2:
        raise AllSigmaZeroError(f"need >= 2 points with sigma > 0, got {n_used}")
    expected = np.arange(1, grid_size + 1, dtype=np.float64) / (grid_size + 1)
    return used, _residual_ratio(p)[used], expected


def _grid_bins(z: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per point, the index of the first grid value >= Φ(z): the point has
    Φ(z) <= expected[j] exactly for j >= its bin."""
    return np.searchsorted(expected, std_normal_cdf(z), side="left")


def _observed_proportions(bins: np.ndarray, n_used: int, grid_size: int) -> np.ndarray:
    """Observed proportion at each grid value among ``n_used`` points.

    Bins at or past ``grid_size`` (Φ(z) above every grid value, or a
    sigma == 0 point) count at no grid value.
    """
    counts = np.bincount(bins, minlength=grid_size + 1)[:grid_size]
    return np.cumsum(counts) / n_used


def _area_between(expected: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Trapezoid of |observed - expected| over [0, 1] with the implicit (0, 0)
    and (1, 1) endpoints, for each curve along the last axis of ``observed``:
    a scalar for one curve, one area per row for a stack of them."""
    x = np.concatenate(([0.0], expected, [1.0]))
    y = np.zeros(observed.shape[:-1] + x.shape)
    gaps = y[..., 1:-1]
    np.abs(np.subtract(observed, expected, out=gaps), out=gaps)
    return np.trapezoid(y, x, axis=-1)


def calibration_curve(p: PredictionSet, grid_size: int = DEFAULT_GRID_SIZE) -> CalibrationCurve:
    """Quantile-based calibration curve on a uniform interior grid.

    Expected proportions are j/(grid_size+1) for j = 1..grid_size; observed
    proportions count Φ(z_i) <= p_j among the sigma > 0 points. The area is
    the trapezoidal integral of |observed - expected| including the implicit
    (0,0) and (1,1) endpoints.
    """
    _, z_used, expected = _curve_rows(p, grid_size)
    n_used = z_used.size
    # the count ignores order; sorted keys only make the grid search faster
    observed = _observed_proportions(_grid_bins(np.sort(z_used), expected), n_used, grid_size)
    return CalibrationCurve(
        expected=expected,
        observed=observed,
        miscalibration_area=float(_area_between(expected, observed)),
        n_used=n_used,
        n_excluded_zero_sigma=p.n - n_used,
    )


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
    used, z_used, expected = _curve_rows(p, grid_size)
    fracs = np.asarray(fractions, dtype=np.float64).ravel()
    if fracs.size == 0:
        raise DomainError("need at least one fraction")
    if not np.all((fracs > 0.0) & (fracs <= 1.0)):  # NaN fails too
        raise DomainError("fractions must lie in (0, 1]")
    trials = check_size(check_count(trials, "trials", 1), "trials")
    subgroups = check_count(subgroups, "subgroups", 1)

    all_used = bool(used.all())
    # sigma == 0 counts nowhere; the narrowest dtype makes each subgroup's gather cheap
    bins = np.full(p.n, grid_size, dtype=np.min_scalar_type(grid_size))
    bins[used] = _grid_bins(z_used, expected)

    sizes = np.rint(fracs * p.n).astype(int)
    for f, size in zip(fracs, sizes):
        if size < 2:
            raise FractionTooSmallError(f"fraction {f} gives subgroup size {size} < 2")

    mean_worst = np.empty(fracs.size)
    std_err = np.empty(fracs.size)
    # a trial's subgroup curves, one row each, whose areas are taken together;
    # the rows are capped, so the subgroup count sizes time, not memory
    observed = np.empty((min(subgroups, _AREA_ROWS), grid_size))
    for fi, size in enumerate(sizes):
        maxima = np.empty(trials)
        for t in range(trials):
            rng = seed.derive(fi, t).generator()
            worst = -np.inf
            for g in range(subgroups):
                if size == p.n:  # every row in some order: the whole set's counts
                    sub_bins, n_used = bins, z_used.size
                else:
                    idx = rng.choice(p.n, size=size, replace=False)
                    sub_bins = bins[idx]
                    n_used = int(size) if all_used else int(np.count_nonzero(used[idx]))
                if n_used < 2:
                    raise AllSigmaZeroError(
                        f"subgroup of size {size} has {n_used} usable points (sigma > 0)"
                    )
                row = g % len(observed)
                observed[row] = _observed_proportions(sub_bins, n_used, grid_size)
                if row == len(observed) - 1 or g == subgroups - 1:
                    worst = max(worst, _area_between(expected, observed[: row + 1]).max())
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
