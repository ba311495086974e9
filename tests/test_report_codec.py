"""The dataclass-walk report codec against the hand-written reference.

Written JSON text must equal the reference's, and reading back a dict, as
written or with its keys, format, a value's type or its own type broken, must
give the same report or the same error type and message.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import report_reference as ref
from uqregress import report
from uqregress.errors import ReportSchemaError
from uqregress.metrics import AccuracyReport, DispersionReport

from conftest import gaussian_null

SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

floats = st.one_of(st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324)),
                   st.floats(width=64))
ints = st.integers(-(2**64), 2**64)
errors = st.lists(st.text(max_size=8), max_size=3).map(tuple)

accuracies = st.builds(
    AccuracyReport, mae=floats, rmse=floats, mdae=floats, marpd=floats, r2=floats,
    pearson_r=floats, n=ints, marpd_zero_denominator_count=ints, errors=errors,
)
dispersions = st.builds(
    DispersionReport, q1=floats, q2=floats, q3=floats, iqr=floats, whisker_lo=floats,
    whisker_hi=floats, cv=floats, sharpness=floats, outlier_count=ints, n=ints, errors=errors,
)
reports = st.builds(
    report.MetricsReport, n=ints, accuracy=accuracies, sharpness=floats, dispersion=dispersions,
    miscalibration_area=st.one_of(st.none(), floats), calibration_n_used=ints,
    calibration_n_excluded_zero_sigma=ints, interval_score_mean=floats,
    # an int multiplier must still be written as a float: the declared type decides
    honesty_multiplier=st.one_of(floats, st.integers(-1000, 1000)), honesty_rate=floats,
    errors=errors,
)


def _text(to_dict, r) -> str:
    return json.dumps(to_dict(r), indent=2, allow_nan=False)


def _outcome(from_dict, d):
    """A comparable summary of reading ``d``: the report's repr or the error."""
    try:
        return ("ok", repr(from_dict(d)))
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


@SETTINGS
@given(reports)
def test_json_text_matches_reference(r):
    assert _text(report.report_to_dict, r) == _text(ref.report_to_dict, r)


@SETTINGS
@given(reports)
def test_round_trip_matches_reference(r):
    d = json.loads(_text(ref.report_to_dict, r))
    assert _outcome(report.report_from_dict, d) == _outcome(ref.report_from_dict, d)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=2)),
    max_leaves=4,
)


@st.composite
def mutated(draw):
    """A written report dict with one key added or removed (top level or
    nested), its format changed, a nested object replaced, one value replaced
    by a JSON value of any type, or not a dict."""
    d = json.loads(_text(ref.report_to_dict, draw(reports)))
    kind = draw(st.sampled_from(("extra", "missing", "format", "nested", "value", "not_dict")))
    level = d if draw(st.booleans()) else d[draw(st.sampled_from(("accuracy", "dispersion")))]
    if kind == "extra":
        level[draw(st.text(max_size=12))] = draw(st.one_of(st.none(), st.integers(), st.text()))
    elif kind == "missing":
        del level[draw(st.sampled_from(sorted(level)))]
    elif kind == "format":
        d["format"] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=24),
                                     st.just("uqregress-report-v2")))
    elif kind == "nested":
        d[draw(st.sampled_from(("accuracy", "dispersion")))] = draw(
            st.one_of(st.none(), st.integers(), st.lists(st.text(max_size=4), max_size=3)))
    elif kind == "value":
        key = draw(st.sampled_from(sorted(k for k in level if k != "format")))
        level[key] = draw(json_values)
    else:
        d = draw(st.one_of(st.none(), st.integers(), st.text(max_size=8),
                           st.lists(st.integers(), max_size=3), st.just(list(d.items()))))
    return d


@SETTINGS
@given(mutated())
def test_mutated_dicts_match_reference(d):
    assert _outcome(report.report_from_dict, d) == _outcome(ref.report_from_dict, d)


WRONG_TYPES = [
    (("accuracy",), None, "report.accuracy must be a JSON object, got NoneType"),
    (("errors",), 5, "report.errors must be a list of strings, got int"),
    (("accuracy", "errors"), ["ok", 1], "report.accuracy.errors must be a list of strings"),
    (("n",), "many", "report.n must be an integer, got str"),
    (("n",), 2.5, "report.n must be an integer, got float"),
    (("dispersion", "outlier_count"), True, "report.dispersion.outlier_count must be an integer"),
    (("sharpness",), "0.1", "report.sharpness must be a number or null, got str"),
    (("accuracy", "mae"), False, "report.accuracy.mae must be a number or null, got bool"),
]


@pytest.mark.parametrize("path, value, needle", WRONG_TYPES,
                         ids=[f"{'.'.join(p)}={v!r}" for p, v, _ in WRONG_TYPES])
def test_wrong_value_type_names_the_field(path, value, needle):
    r, _ = report.evaluate(gaussian_null(50, 1))
    d = report.report_to_dict(r)
    *parents, key = path
    level = d
    for name in parents:
        level = level[name]
    level[key] = value
    for from_dict in (report.report_from_dict, ref.report_from_dict):
        with pytest.raises(ReportSchemaError, match=needle):
            from_dict(d)
