"""The full metric portfolio for one prediction set, and its JSON schema.

One report carries all five metric families — accuracy, sharpness,
dispersion, calibration, tightness — plus the 3-sigma honesty rate. Soft
metric failures are collected into the report's ``errors`` array instead of
aborting, so a partial portfolio is always produced. The JSON schema is
versioned and closed: unknown fields are rejected on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import get_origin, get_type_hints

from .calibration import DEFAULT_GRID_SIZE, CalibrationCurve, calibration_curve
from .core import PredictionSet, validate_prediction_set
from .errors import AllSigmaZeroError, ReportSchemaError, _check_keys
from .metrics import AccuracyReport, DispersionReport, accuracy, dispersion, sharpness
from .scoring import interval_score
from .screening import honesty_rate

REPORT_FORMAT = "uqregress-report-v1"


@dataclass(frozen=True)
class MetricsReport:
    n: int
    accuracy: AccuracyReport
    sharpness: float
    dispersion: DispersionReport
    miscalibration_area: float | None
    calibration_n_used: int
    calibration_n_excluded_zero_sigma: int
    interval_score_mean: float
    honesty_multiplier: float
    honesty_rate: float
    errors: tuple[str, ...] = ()


def evaluate(
    p: PredictionSet,
    grid_size: int = DEFAULT_GRID_SIZE,
    honesty_multiplier: float = 3.0,
) -> tuple[MetricsReport, CalibrationCurve | None]:
    """Compute the whole portfolio; returns the report and the curve.

    The curve is None (with "AllSigmaZero" recorded in errors) when fewer
    than two points have sigma > 0.
    """
    validate_prediction_set(p)
    acc = accuracy(p)
    disp = dispersion(p)
    errors = list(acc.errors) + list(disp.errors)
    try:
        curve = calibration_curve(p, grid_size)
        area = curve.miscalibration_area
        n_used = curve.n_used
        n_excluded = curve.n_excluded_zero_sigma
    except AllSigmaZeroError:
        curve = None
        area = None
        n_used = 0
        n_excluded = int((p.sigma == 0.0).sum())
        errors.append("AllSigmaZero")
    score = interval_score(p)
    report = MetricsReport(
        n=p.n,
        accuracy=acc,
        sharpness=sharpness(p),
        dispersion=disp,
        miscalibration_area=area,
        calibration_n_used=n_used,
        calibration_n_excluded_zero_sigma=n_excluded,
        interval_score_mean=score.mean_score,
        honesty_multiplier=honesty_multiplier,
        honesty_rate=honesty_rate(p, honesty_multiplier),
        errors=tuple(errors),
    )
    return report, curve


def _to_json(kind, value):
    """``value`` as JSON data, by its declared type ``kind``; NaN/Inf (not
    valid strict JSON) become null."""
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        return {f.name: _to_json(hints[f.name], getattr(value, f.name)) for f in fields(kind)}
    if kind is int:
        return value
    if get_origin(kind) is tuple:
        return list(value)
    return None if value is None or not math.isfinite(value) else float(value)


def _from_json(kind, value, where: str):
    """JSON data read back as the declared type ``kind``; a null float is NaN,
    except where the field may be None. A value of the wrong JSON type raises
    ReportSchemaError naming the dotted field ``where``."""
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        _check_keys(value, tuple(f.name for f in fields(kind)), where)
        return kind(**{f.name: _from_json(hints[f.name], value[f.name], f"{where}.{f.name}")
                       for f in fields(kind)})
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        want = "an integer"
    elif get_origin(kind) is tuple:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        want = "a list of strings"
    elif value is None:
        return math.nan if kind is float else None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ReportSchemaError(f"{where} is an integer too large for a float") from None
    else:
        want = "a number or null"
    raise ReportSchemaError(f"{where} must be {want}, got {type(value).__name__}")


def report_to_dict(r: MetricsReport) -> dict:
    """Stable, ordered dict form of a report (ready for json.dump)."""
    return {"format": REPORT_FORMAT, **_to_json(MetricsReport, r)}


def report_from_dict(d: dict) -> MetricsReport:
    """Parse and validate a report dict; rejects unknown fields and versions."""
    _check_keys(d, ("format", *(f.name for f in fields(MetricsReport))), "report")
    if d["format"] != REPORT_FORMAT:
        raise ReportSchemaError(f"unsupported report format {d['format']!r}")
    return _from_json(MetricsReport, {k: v for k, v in d.items() if k != "format"}, "report")
