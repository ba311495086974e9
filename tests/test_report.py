"""Metric portfolio assembly and the closed, versioned JSON schema."""

import json
import math

import pytest

from uqregress.errors import ReportSchemaError
from uqregress.report import evaluate, report_from_dict, report_to_dict

from conftest import gaussian_null, make_pset


class TestEvaluate:
    def test_portfolio_has_all_five_families(self):
        report, curve = evaluate(gaussian_null(2000, seed=1))
        assert report.accuracy.mae >= 0.0                 # accuracy
        assert report.sharpness > 0.0                     # sharpness
        assert report.dispersion.iqr >= 0.0               # dispersion
        assert 0.0 <= report.miscalibration_area <= 0.5   # calibration
        assert report.interval_score_mean > 0.0           # tightness
        assert curve is not None

    def test_dispersion_triple_reported_together(self):
        # the (IQR, Cv, Sha) summary triple must coexist in one report
        report, _ = evaluate(gaussian_null(500, seed=2))
        assert math.isfinite(report.dispersion.iqr)
        assert math.isfinite(report.dispersion.cv)
        assert math.isfinite(report.sharpness)

    def test_calibrated_data_scores_well(self):
        report, _ = evaluate(gaussian_null(100_000, seed=3))
        assert report.miscalibration_area < 0.01
        assert report.honesty_rate == pytest.approx(0.9973, abs=0.005)

    def test_all_sigma_zero_yields_partial_report(self):
        report, curve = evaluate(make_pset([1.0, 2.0], [1.0, 2.0], [0.0, 0.0]))
        assert curve is None
        assert report.miscalibration_area is None
        assert "AllSigmaZero" in report.errors
        assert report.accuracy.mae == 0.0  # the rest of the portfolio survives

    def test_one_usable_point_yields_partial_report(self):
        report, curve = evaluate(make_pset([1.0, 2.0, 0.5], [1.0, 1.5, 2.0], [0.0, 0.3, 0.0]))
        assert curve is None
        assert report.miscalibration_area is None
        assert report.errors == ("AllSigmaZero",)
        assert (report.calibration_n_used, report.calibration_n_excluded_zero_sigma) == (0, 2)
        assert report.sharpness > 0.0  # the rest of the portfolio survives


class TestReportSchema:
    def test_round_trip(self):
        report, _ = evaluate(gaussian_null(300, seed=4))
        d = json.loads(json.dumps(report_to_dict(report)))
        assert report_from_dict(d) == report

    def test_nan_encoded_as_null(self):
        report, _ = evaluate(make_pset([1.0, 1.0, 1.0], [1.0, 1.1, 0.9], [0.1, 0.2, 0.3]))
        d = report_to_dict(report)
        assert d["accuracy"]["r2"] is None
        back = report_from_dict(d)
        assert math.isnan(back.accuracy.r2)

    def test_unknown_field_rejected(self):
        report, _ = evaluate(gaussian_null(300, seed=5))
        d = report_to_dict(report)
        d["surprise"] = 1
        with pytest.raises(ReportSchemaError, match="surprise"):
            report_from_dict(d)

    def test_unknown_nested_field_rejected(self):
        report, _ = evaluate(gaussian_null(300, seed=6))
        d = report_to_dict(report)
        d["accuracy"]["extra"] = 1
        with pytest.raises(ReportSchemaError, match="extra"):
            report_from_dict(d)

    def test_missing_field_rejected(self):
        report, _ = evaluate(gaussian_null(300, seed=7))
        d = report_to_dict(report)
        del d["sharpness"]
        with pytest.raises(ReportSchemaError, match="sharpness"):
            report_from_dict(d)

    def test_wrong_version_rejected(self):
        report, _ = evaluate(gaussian_null(300, seed=8))
        d = report_to_dict(report)
        d["format"] = "uqregress-report-v999"
        with pytest.raises(ReportSchemaError, match="format"):
            report_from_dict(d)
