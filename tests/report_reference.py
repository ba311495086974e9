"""Reference report serializer: the hand-written, field-by-field codec.

This is the report (de)serialization as it stood before ``uqregress.report``
walked the dataclass fields. The property tests hold the field walk to it:
same JSON text written, and the same report or the same error read back.
"""

from __future__ import annotations

import math

from uqregress.errors import ReportSchemaError
from uqregress.metrics import AccuracyReport, DispersionReport
from uqregress.report import REPORT_FORMAT, MetricsReport


def _num(x: float | None):
    # NaN/Inf are not valid strict JSON; encode them as null
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _denum(x) -> float:
    return math.nan if x is None else float(x)


_ACCURACY_KEYS = ("mae", "rmse", "mdae", "marpd", "r2", "pearson_r", "n",
                  "marpd_zero_denominator_count", "errors")
_DISPERSION_KEYS = ("q1", "q2", "q3", "iqr", "whisker_lo", "whisker_hi",
                    "cv", "sharpness", "outlier_count", "n", "errors")
_REPORT_KEYS = ("format", "n", "accuracy", "sharpness", "dispersion",
                "miscalibration_area", "calibration_n_used",
                "calibration_n_excluded_zero_sigma", "interval_score_mean",
                "honesty_multiplier", "honesty_rate", "errors")


def report_to_dict(r: MetricsReport) -> dict:
    """Stable, ordered dict form of a report (ready for json.dump)."""
    return {
        "format": REPORT_FORMAT,
        "n": r.n,
        "accuracy": {
            "mae": _num(r.accuracy.mae),
            "rmse": _num(r.accuracy.rmse),
            "mdae": _num(r.accuracy.mdae),
            "marpd": _num(r.accuracy.marpd),
            "r2": _num(r.accuracy.r2),
            "pearson_r": _num(r.accuracy.pearson_r),
            "n": r.accuracy.n,
            "marpd_zero_denominator_count": r.accuracy.marpd_zero_denominator_count,
            "errors": list(r.accuracy.errors),
        },
        "sharpness": _num(r.sharpness),
        "dispersion": {
            "q1": _num(r.dispersion.q1),
            "q2": _num(r.dispersion.q2),
            "q3": _num(r.dispersion.q3),
            "iqr": _num(r.dispersion.iqr),
            "whisker_lo": _num(r.dispersion.whisker_lo),
            "whisker_hi": _num(r.dispersion.whisker_hi),
            "cv": _num(r.dispersion.cv),
            "sharpness": _num(r.dispersion.sharpness),
            "outlier_count": r.dispersion.outlier_count,
            "n": r.dispersion.n,
            "errors": list(r.dispersion.errors),
        },
        "miscalibration_area": _num(r.miscalibration_area),
        "calibration_n_used": r.calibration_n_used,
        "calibration_n_excluded_zero_sigma": r.calibration_n_excluded_zero_sigma,
        "interval_score_mean": _num(r.interval_score_mean),
        "honesty_multiplier": _num(r.honesty_multiplier),
        "honesty_rate": _num(r.honesty_rate),
        "errors": list(r.errors),
    }


def _check_keys(d: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ReportSchemaError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = set(allowed) - set(d)
    if missing:
        raise ReportSchemaError(f"missing field(s) {sorted(missing)} in {where}")


def report_from_dict(d: dict) -> MetricsReport:
    """Parse and validate a report dict; rejects unknown fields and versions."""
    if not isinstance(d, dict):
        raise ReportSchemaError(f"report must be a JSON object, got {type(d).__name__}")
    _check_keys(d, _REPORT_KEYS, "report")
    if d["format"] != REPORT_FORMAT:
        raise ReportSchemaError(f"unsupported report format {d['format']!r}")
    _check_keys(d["accuracy"], _ACCURACY_KEYS, "report.accuracy")
    _check_keys(d["dispersion"], _DISPERSION_KEYS, "report.dispersion")
    a, dd = d["accuracy"], d["dispersion"]
    return MetricsReport(
        n=int(d["n"]),
        accuracy=AccuracyReport(
            mae=_denum(a["mae"]), rmse=_denum(a["rmse"]), mdae=_denum(a["mdae"]),
            marpd=_denum(a["marpd"]), r2=_denum(a["r2"]), pearson_r=_denum(a["pearson_r"]),
            n=int(a["n"]),
            marpd_zero_denominator_count=int(a["marpd_zero_denominator_count"]),
            errors=tuple(a["errors"]),
        ),
        sharpness=_denum(d["sharpness"]),
        dispersion=DispersionReport(
            q1=_denum(dd["q1"]), q2=_denum(dd["q2"]), q3=_denum(dd["q3"]),
            iqr=_denum(dd["iqr"]), whisker_lo=_denum(dd["whisker_lo"]),
            whisker_hi=_denum(dd["whisker_hi"]), cv=_denum(dd["cv"]),
            sharpness=_denum(dd["sharpness"]), outlier_count=int(dd["outlier_count"]),
            n=int(dd["n"]), errors=tuple(dd["errors"]),
        ),
        miscalibration_area=None if d["miscalibration_area"] is None else float(d["miscalibration_area"]),
        calibration_n_used=int(d["calibration_n_used"]),
        calibration_n_excluded_zero_sigma=int(d["calibration_n_excluded_zero_sigma"]),
        interval_score_mean=_denum(d["interval_score_mean"]),
        honesty_multiplier=_denum(d["honesty_multiplier"]),
        honesty_rate=_denum(d["honesty_rate"]),
        errors=tuple(d["errors"]),
    )
