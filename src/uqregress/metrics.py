"""Accuracy, sharpness, and dispersion metrics over a PredictionSet.

Soft failures (constant targets, zero mean sigma, zero MARPD denominators)
are reported in-band on the result objects instead of raising, so a partial
metric portfolio is always available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PredictionSet
from .errors import DomainError, MissingGroupsError
from .numerics import kde_scott


@dataclass(frozen=True)
class AccuracyReport:
    """MAE / RMSE / MDAE / MARPD / R² / Pearson R for one prediction set."""

    mae: float
    rmse: float
    mdae: float
    marpd: float
    r2: float
    pearson_r: float
    n: int
    marpd_zero_denominator_count: int = 0
    errors: tuple[str, ...] = ()


@dataclass(frozen=True)
class DispersionReport:
    """Box statistics, coefficient of variation, and RMS of a value set.

    Quartiles use the linear-interpolation (type-7) convention; whiskers sit
    at q1 - 1.5*IQR and q3 + 1.5*IQR; cv is Bessel-corrected std over mean.
    """

    q1: float
    q2: float
    q3: float
    iqr: float
    whisker_lo: float
    whisker_hi: float
    cv: float
    sharpness: float
    outlier_count: int
    n: int
    errors: tuple[str, ...] = ()


@dataclass(frozen=True)
class GroupMetrics:
    """Per-tag metrics; ``accuracy`` is None for tags with fewer than 2 rows."""

    tag: str
    n: int
    mae: float
    sharpness: float
    accuracy: AccuracyReport | None


@dataclass(frozen=True)
class DistributionSummary:
    """Box statistics plus a Scott's-rule KDE evaluated on a grid."""

    box: DispersionReport
    eval_grid: np.ndarray
    densities: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # finite inputs above ~1e154 give inf/nan
def accuracy(p: PredictionSet) -> AccuracyReport:
    """Accuracy portfolio of mu against y_true.

    MARPD terms with |mu| + |y| == 0 contribute 0 and are counted. With a
    constant target, R² and Pearson R are NaN and "ConstantTarget" is
    recorded in ``errors``; everything else is still computed.
    """
    if p.n < 2:
        raise DomainError(f"accuracy needs n >= 2, got {p.n}")
    y, yhat = p.y_true, p.mu
    abs_err = np.abs(yhat - y)
    mae = float(np.mean(abs_err))
    rmse = float(np.sqrt(np.mean(abs_err**2)))
    mdae = float(np.median(abs_err))

    denom = np.abs(yhat) + np.abs(y)
    zero_denom = denom == 0.0
    terms = np.zeros_like(denom)
    np.divide(100.0 * abs_err, denom, out=terms, where=~zero_denom)
    marpd = float(np.mean(terms))

    errors: tuple[str, ...] = ()
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = math.nan
        pearson = math.nan
        errors = ("ConstantTarget",)
    else:
        r2 = float(1.0 - np.sum((y - yhat) ** 2) / ss_tot)  # -inf for a subnormal ss_tot
        sd_yhat = float(np.std(yhat))
        if sd_yhat == 0.0:
            pearson = math.nan
            errors = ("ConstantPrediction",)
        else:
            pearson = float(np.corrcoef(yhat, y)[0, 1])
    return AccuracyReport(
        mae=mae,
        rmse=rmse,
        mdae=mdae,
        marpd=marpd,
        r2=r2,
        pearson_r=pearson,
        n=p.n,
        marpd_zero_denominator_count=int(zero_denom.sum()),
        errors=errors,
    )


@np.errstate(over="ignore", invalid="ignore")
def sharpness(p: PredictionSet) -> float:
    """Root mean square of the predicted sigmas."""
    if p.n < 1:
        raise DomainError("sharpness needs n >= 1")
    return float(np.sqrt(np.mean(p.sigma**2)))


@np.errstate(over="ignore", invalid="ignore")
def _dispersion_of(values: np.ndarray) -> DispersionReport:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        raise DomainError(f"dispersion needs n >= 2, got {values.size}")
    q1, q2, q3 = (float(q) for q in np.quantile(values, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    outliers = int(np.count_nonzero((values < lo) | (values > hi)))
    mean = float(np.mean(values))
    errors: tuple[str, ...] = ()
    if mean == 0.0:
        cv = math.nan
        errors = ("ZeroMeanSigma",)
    else:
        cv = float(np.std(values, ddof=1) / mean)
    rms = float(np.sqrt(np.mean(values**2)))
    return DispersionReport(
        q1=q1, q2=q2, q3=q3, iqr=iqr,
        whisker_lo=lo, whisker_hi=hi,
        cv=cv, sharpness=rms,
        outlier_count=outliers, n=values.size, errors=errors,
    )


def dispersion(p: PredictionSet) -> DispersionReport:
    """Box statistics, Cv, and sharpness of the sigma distribution."""
    return _dispersion_of(p.sigma)


@np.errstate(over="ignore", invalid="ignore")
def grouped_metrics(p: PredictionSet) -> dict[str, GroupMetrics]:
    """Metrics computed independently for each group tag, in sorted-tag order.

    Tags with a single row report MAE and sharpness only (accuracy=None).
    """
    if p.groups is None:
        raise MissingGroupsError("prediction set has no group tags")
    tags = sorted(set(p.groups))
    garr = np.asarray(p.groups)
    out: dict[str, GroupMetrics] = {}
    for tag in tags:
        idx = np.flatnonzero(garr == tag)
        sub = p.subset(idx)
        acc = accuracy(sub) if sub.n >= 2 else None
        out[tag] = GroupMetrics(
            tag=tag,
            n=sub.n,
            mae=float(np.mean(np.abs(sub.mu - sub.y_true))),
            sharpness=sharpness(sub),
            accuracy=acc,
        )
    return out


def distribution_summary(values, eval_grid) -> DistributionSummary:
    """Box statistics plus KDE densities on ``eval_grid`` (violin-plot data)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    grid = np.asarray(eval_grid, dtype=np.float64).ravel()
    box = _dispersion_of(values)
    densities = kde_scott(values, grid)
    return DistributionSummary(box=box, eval_grid=grid, densities=densities)
