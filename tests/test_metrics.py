"""Accuracy / sharpness / dispersion metrics against hand-computed oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqregress.errors import DomainError, MissingGroupsError, UqError
from uqregress.metrics import (
    accuracy,
    dispersion,
    distribution_summary,
    grouped_metrics,
    sharpness,
)
from uqregress.recalibration import apply_scalar, fit_scalar
from uqregress.report import evaluate
from uqregress.scoring import interval_score
from uqregress.screening import ScreenCriteria, honesty_rate, screen

from conftest import make_pset

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestAccuracy:
    def test_perfect_predictions(self):
        y = [1.0, -2.0, 3.5, 0.25]
        rep = accuracy(make_pset(y, y, [0.1] * 4))
        assert rep.mae == rep.rmse == rep.mdae == rep.marpd == 0.0
        assert rep.r2 == 1.0
        assert rep.pearson_r == pytest.approx(1.0)

    def test_hand_evaluated_marpd(self):
        # terms: 0 and 100*|2-1|/(|2|+|1|) -> mean = 50/3
        rep = accuracy(make_pset([1.0, 1.0], [1.0, 2.0], [0.1, 0.1]))
        assert rep.mae == pytest.approx(0.5)
        assert rep.marpd == pytest.approx(100.0 / 6.0)

    def test_report_carries_r2_and_mdae_fields(self):
        # reporting shape: the same fields a full-scale run publishes
        rep = accuracy(make_pset([1.0, 2.0, 3.0], [1.1, 2.2, 2.7], [0.1] * 3))
        for field in ("mae", "rmse", "mdae", "marpd", "r2", "pearson_r", "n"):
            assert math.isfinite(float(getattr(rep, field)))

    def test_constant_target_reports_error(self):
        rep = accuracy(make_pset([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], [0.1] * 3))
        assert "ConstantTarget" in rep.errors
        assert math.isnan(rep.r2) and math.isnan(rep.pearson_r)
        assert rep.mae == pytest.approx(2.0 / 3.0)

    def test_zero_denominator_terms_counted(self):
        rep = accuracy(make_pset([0.0, 1.0], [0.0, 2.0], [0.1, 0.1]))
        assert rep.marpd_zero_denominator_count == 1
        assert rep.marpd == pytest.approx(0.5 * 100.0 / 3.0)

    def test_requires_two_points(self):
        with pytest.raises(DomainError):
            accuracy(make_pset([1.0], [1.0], [0.1]))

    def test_subnormal_target_spread_gives_minus_inf_r2_without_warning(self):
        # ss_tot is subnormal, so SSE / ss_tot overflows; the report writes null
        rep = accuracy(make_pset([1e-160, 0.0, 0.0], [1e10, 0.0, 0.0], [1.0, 1.0, 2.0]))
        assert rep.r2 == -math.inf

    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_marpd_bounded(self, pairs):
        y = [a for a, _ in pairs]
        mu = [b for _, b in pairs]
        rep = accuracy(make_pset(y, mu, [1.0] * len(pairs)))
        assert 0.0 <= rep.marpd <= 200.0


class TestSharpness:
    def test_constant_sigma(self):
        assert sharpness(make_pset([0, 0, 0], [0, 0, 0], [0.7, 0.7, 0.7])) == pytest.approx(0.7)

    def test_rms_of_three_four(self):
        assert sharpness(make_pset([0, 0], [0, 0], [3.0, 4.0])) == pytest.approx(math.sqrt(12.5))

    def test_degree_one_homogeneity(self, rng):
        sigma = rng.uniform(0.0, 2.0, 50)
        p = make_pset(np.zeros(50), np.zeros(50), sigma)
        assert sharpness(make_pset(np.zeros(50), np.zeros(50), 3.0 * sigma)) == pytest.approx(
            3.0 * sharpness(p), rel=1e-12
        )

    def test_definition_identity(self, rng):
        sigma = rng.uniform(0.0, 5.0, 200)
        p = make_pset(np.zeros(200), np.zeros(200), sigma)
        assert sharpness(p) ** 2 == pytest.approx(np.mean(sigma**2), rel=1e-12)


class TestDispersion:
    def test_type7_quartiles(self):
        rep = dispersion(make_pset([0] * 4, [0] * 4, [1.0, 2.0, 3.0, 4.0]))
        assert rep.q1 == pytest.approx(1.75)
        assert rep.q3 == pytest.approx(3.25)
        assert rep.iqr == pytest.approx(1.5)
        assert rep.whisker_lo == pytest.approx(1.75 - 2.25)
        assert rep.whisker_hi == pytest.approx(3.25 + 2.25)

    def test_constant_sigma_degenerate(self):
        rep = dispersion(make_pset([0] * 5, [0] * 5, [0.3] * 5))
        assert rep.iqr == 0.0
        assert rep.cv == 0.0
        assert rep.outlier_count == 0

    def test_cv_scale_invariance(self, rng):
        sigma = rng.uniform(0.1, 2.0, 300)
        base = dispersion(make_pset(np.zeros(300), np.zeros(300), sigma))
        scaled = dispersion(make_pset(np.zeros(300), np.zeros(300), 7.3 * sigma))
        assert scaled.cv == pytest.approx(base.cv, rel=1e-12)

    def test_zero_mean_sigma_reported(self):
        rep = dispersion(make_pset([0, 0], [0, 0], [0.0, 0.0]))
        assert "ZeroMeanSigma" in rep.errors
        assert math.isnan(rep.cv)

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_quartile_ordering(self, sigmas):
        rep = dispersion(make_pset([0.0] * len(sigmas), [0.0] * len(sigmas), sigmas))
        assert rep.q1 <= rep.q2 <= rep.q3
        assert rep.iqr == pytest.approx(rep.q3 - rep.q1)


class TestGroupedMetrics:
    def test_single_group_equals_global(self, rng):
        y = rng.normal(size=30)
        mu = y + rng.normal(0, 0.2, 30)
        p = make_pset(y, mu, rng.uniform(0.1, 1, 30), groups=("all",) * 30)
        gm = grouped_metrics(p)["all"]
        assert gm.n == 30
        assert gm.mae == accuracy(p).mae
        assert gm.sharpness == sharpness(p)
        assert gm.accuracy == accuracy(p)

    def test_two_disjoint_groups(self):
        y = [1.0, 2.0, 5.0, 7.0]
        mu = [1.0, 2.0, 6.0, 8.0]  # perfect on "a", off by 1 on "b"
        p = make_pset(y, mu, [0.1] * 4, groups=("a", "a", "b", "b"))
        gm = grouped_metrics(p)
        assert gm["a"].mae == 0.0
        assert gm["b"].mae == pytest.approx(1.0)

    def test_pooled_mae_is_weighted_mean(self, rng):
        n = 200
        y = rng.normal(size=n)
        mu = y + rng.normal(0, 0.5, n)
        groups = tuple(rng.choice(["u", "v", "w"]) for _ in range(n))
        p = make_pset(y, mu, rng.uniform(0.1, 1, n), groups=groups)
        gm = grouped_metrics(p)
        pooled = sum(g.n * g.mae for g in gm.values()) / n
        assert pooled == pytest.approx(accuracy(p).mae, rel=1e-12)

    def test_singleton_group_reports_mae_and_sharpness_only(self):
        p = make_pset([1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [0.2, 0.1, 0.1],
                      groups=("solo", "pair", "pair"))
        gm = grouped_metrics(p)
        assert gm["solo"].n == 1
        assert gm["solo"].accuracy is None
        assert gm["solo"].mae == pytest.approx(0.5)
        assert gm["solo"].sharpness == pytest.approx(0.2)
        assert gm["pair"].accuracy is not None

    def test_missing_groups(self):
        with pytest.raises(MissingGroupsError):
            grouped_metrics(make_pset([1.0, 2.0], [1.0, 2.0], [0.1, 0.1]))


class TestDistributionSummary:
    def test_row_count_matches_grid(self, rng):
        values = rng.uniform(0, 1, 100)
        grid = np.linspace(-1, 2, 37)
        summary = distribution_summary(values, grid)
        assert summary.densities.shape == (37,)

    def test_degenerate_values(self):
        from uqregress.errors import DegenerateSampleError

        with pytest.raises(DegenerateSampleError):
            distribution_summary([1.0, 1.0, 1.0], np.linspace(0, 2, 10))

    def test_kde_mode_near_median_for_normal_sample(self):
        rng = np.random.default_rng(3)
        values = rng.normal(5.0, 1.0, 5000)
        grid = np.linspace(0, 10, 501)
        summary = distribution_summary(values, grid)
        mode = grid[np.argmax(summary.densities)]
        assert abs(mode - np.median(values)) < 0.25


@pytest.mark.parametrize("metric, n, message", [
    (sharpness, 0, "sharpness needs n >= 1"),
    (dispersion, 1, "dispersion needs n >= 2, got 1"),
    (interval_score, 0, "interval_score needs n >= 1"),
    (lambda p: honesty_rate(p, 3.0), 0, "honesty_rate needs n >= 1"),
], ids=["sharpness", "dispersion", "interval_score", "honesty_rate"])
def test_too_few_rows_are_refused(metric, n, message):
    p = make_pset([1.0] * n, [0.5] * n, [0.1] * n)
    with pytest.raises(DomainError) as info:
        metric(p)
    assert str(info.value) == message


EXTREME = st.one_of(
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1e200, -1e160, 1.5e154,
                     5e-324, -5e-324, 0.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(st.tuples(EXTREME, EXTREME, EXTREME.map(abs)),
                                                     min_size=n, max_size=n)))
def test_extreme_finite_inputs_warn_nothing(rows):
    """Library calls on finite values up to the float limits raise no RuntimeWarning.

    Overflow gives inf or NaN in a result, as it does under the CLI; tier-1
    turns any numpy RuntimeWarning into an error.
    """
    y, mu, sigma = (list(c) for c in zip(*rows))
    p = make_pset(y, mu, sigma, groups=tuple("ab"[i % 2] for i in range(len(rows))))
    calls = (
        accuracy, sharpness, dispersion, grouped_metrics, interval_score,
        lambda p: distribution_summary(p.sigma, np.linspace(0.0, 1e308, 7)),
        lambda p: screen(p, ScreenCriteria(-1e308, 1e308, 1e308)),
        lambda p: honesty_rate(p, 3.0),
        lambda p: apply_scalar(p, 1e3),
        fit_scalar, evaluate,
    )
    for call in calls:
        try:
            call(p)
        except UqError:  # a degenerate or overflowing set may be refused, but not warned about
            pass
