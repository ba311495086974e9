"""Reference report serializer: the hand-written, field-by-field codec.

This is the report (de)serialization as it stood before ``uqregress.report``
walked the dataclass fields, with the same JSON type check on every value
read back. The property tests hold the field walk to it: same JSON text
written, and the same report or the same error read back.
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


def _wrong(where: str, want: str, x):
    return ReportSchemaError(f"{where} must be {want}, got {type(x).__name__}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _denum(x, where: str) -> float:
    if x is not None and not _is_number(x):
        raise _wrong(where, "a number or null", x)
    if x is None:
        return math.nan
    try:
        return float(x)
    except OverflowError:
        raise ReportSchemaError(f"{where} is an integer too large for a float") from None


def _int(x, where: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise _wrong(where, "an integer", x)
    return x


def _strs(x, where: str) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(v, str) for v in x):
        raise _wrong(where, "a list of strings", x)
    return tuple(x)


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
    if not isinstance(d, dict):
        raise _wrong(where, "a JSON object", d)
    unknown = set(d) - set(allowed)
    if unknown:
        raise ReportSchemaError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = set(allowed) - set(d)
    if missing:
        raise ReportSchemaError(f"missing field(s) {sorted(missing)} in {where}")


def report_from_dict(d: dict) -> MetricsReport:
    """Parse and validate a report dict; rejects unknown fields and versions,
    and values of the wrong JSON type."""
    _check_keys(d, _REPORT_KEYS, "report")
    if d["format"] != REPORT_FORMAT:
        raise ReportSchemaError(f"unsupported report format {d['format']!r}")
    _check_keys(d["accuracy"], _ACCURACY_KEYS, "report.accuracy")
    _check_keys(d["dispersion"], _DISPERSION_KEYS, "report.dispersion")
    a, dd = d["accuracy"], d["dispersion"]

    def acc(key):
        return _denum(a[key], f"report.accuracy.{key}")

    def disp(key):
        return _denum(dd[key], f"report.dispersion.{key}")

    def top(key):
        return _denum(d[key], f"report.{key}")

    return MetricsReport(
        n=_int(d["n"], "report.n"),
        accuracy=AccuracyReport(
            mae=acc("mae"), rmse=acc("rmse"), mdae=acc("mdae"),
            marpd=acc("marpd"), r2=acc("r2"), pearson_r=acc("pearson_r"),
            n=_int(a["n"], "report.accuracy.n"),
            marpd_zero_denominator_count=_int(a["marpd_zero_denominator_count"],
                                              "report.accuracy.marpd_zero_denominator_count"),
            errors=_strs(a["errors"], "report.accuracy.errors"),
        ),
        sharpness=top("sharpness"),
        dispersion=DispersionReport(
            q1=disp("q1"), q2=disp("q2"), q3=disp("q3"),
            iqr=disp("iqr"), whisker_lo=disp("whisker_lo"),
            whisker_hi=disp("whisker_hi"), cv=disp("cv"),
            sharpness=disp("sharpness"),
            outlier_count=_int(dd["outlier_count"], "report.dispersion.outlier_count"),
            n=_int(dd["n"], "report.dispersion.n"),
            errors=_strs(dd["errors"], "report.dispersion.errors"),
        ),
        miscalibration_area=(None if d["miscalibration_area"] is None
                             else top("miscalibration_area")),
        calibration_n_used=_int(d["calibration_n_used"], "report.calibration_n_used"),
        calibration_n_excluded_zero_sigma=_int(d["calibration_n_excluded_zero_sigma"],
                                               "report.calibration_n_excluded_zero_sigma"),
        interval_score_mean=top("interval_score_mean"),
        honesty_multiplier=top("honesty_multiplier"),
        honesty_rate=top("honesty_rate"),
        errors=_strs(d["errors"], "report.errors"),
    )
