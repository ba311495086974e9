"""The dataclass-walk report codec against the hand-written reference.

Written JSON text must equal the reference's, and reading back a dict, as
written or with its keys, format or type broken, must give the same report
or the same error type and message.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import report_reference as ref
from uqregress import report
from uqregress.metrics import AccuracyReport, DispersionReport

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


@st.composite
def mutated(draw):
    """A written report dict with one key added or removed (top level or
    nested), its format changed, a nested object replaced, or not a dict."""
    d = json.loads(_text(ref.report_to_dict, draw(reports)))
    kind = draw(st.sampled_from(("extra", "missing", "format", "nested", "not_dict")))
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
    else:
        d = draw(st.one_of(st.none(), st.integers(), st.text(max_size=8),
                           st.lists(st.integers(), max_size=3), st.just(list(d.items()))))
    return d


@SETTINGS
@given(mutated())
def test_mutated_dicts_match_reference(d):
    assert _outcome(report.report_from_dict, d) == _outcome(ref.report_from_dict, d)

