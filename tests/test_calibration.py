"""Calibration curves, miscalibration area, adversarial group calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqregress.calibration import (
    _area_between,
    adversarial_group_calibration,
    calibration_curve,
    normalized_residuals,
)
from uqregress.core import RngSeed
from uqregress.errors import AllSigmaZeroError, DomainError, FractionTooSmallError
from uqregress.numerics import std_normal_cdf
from uqregress.recalibration import fit_scalar

from conftest import gaussian_null, make_pset


class TestNormalizedResiduals:
    def test_exact_predictions(self):
        z = normalized_residuals(make_pset([1.0, 2.0], [1.0, 2.0], [0.5, 0.5]))
        np.testing.assert_array_equal(z, [0.0, 0.0])

    def test_unit_case(self):
        z = normalized_residuals(make_pset([1.5, 3.0], [1.0, 2.0], [0.5, 1.0]))
        np.testing.assert_allclose(z, [1.0, 1.0])

    def test_direct_arithmetic(self):
        z = normalized_residuals(make_pset([1.0], [0.0], [0.5]))
        assert z[0] == pytest.approx(2.0)

    def test_zero_sigma_sentinel(self):
        z = normalized_residuals(make_pset([1.0, 2.0], [0.5, 2.0], [0.0, 1.0]))
        assert np.isposinf(z[0])
        assert z[1] == 0.0


class TestCalibrationCurve:
    def test_null_data_hugs_diagonal(self):
        p = gaussian_null(100_000, seed=1)
        c = calibration_curve(p)
        assert np.max(np.abs(c.observed - c.expected)) < 0.01
        assert c.miscalibration_area < 0.01
        assert c.n_used == 100_000
        assert c.n_excluded_zero_sigma == 0

    def test_overconfident_sigma_saturates_upper_half(self):
        p = gaussian_null(50_000, seed=2, sigma_scale=0.1)
        c = calibration_curve(p)
        assert c.miscalibration_area >= 0.2
        upper = c.expected > 0.5
        assert np.all(c.observed[upper] < c.expected[upper])  # below the diagonal

    def test_observed_nondecreasing_and_expected_increasing(self):
        p = gaussian_null(500, seed=3, sigma_scale=0.5)
        c = calibration_curve(p)
        assert np.all(np.diff(c.observed) >= 0.0)
        assert np.all(np.diff(c.expected) > 0.0)

    def test_zero_sigma_points_excluded_and_counted(self):
        rng = np.random.default_rng(4)
        n = 1000
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.5, 1.0, n)
        sigma[:100] = 0.0
        y = mu + sigma * rng.standard_normal(n)
        c = calibration_curve(make_pset(y, mu, sigma))
        assert c.n_used == 900
        assert c.n_excluded_zero_sigma == 100
        assert c.miscalibration_area < 0.05

    def test_all_sigma_zero(self):
        with pytest.raises(AllSigmaZeroError):
            calibration_curve(make_pset([1.0, 2.0], [1.0, 2.0], [0.0, 0.0]))


class TestMiscalibrationArea:
    def test_perfect_curve(self):
        e = np.linspace(0.01, 0.99, 99)
        assert _area_between(e, e.copy()) == 0.0

    def test_piecewise_closed_form(self):
        # {(0,0), (0.5,0.25), (1,1)} -> two triangles-ish trapezoids = 0.125
        assert _area_between(np.array([0.5]), np.array([0.25])) == pytest.approx(0.125)

    def test_worst_case_approaches_half_as_grid_refines(self):
        areas = []
        for grid_size in (99, 999):
            e = np.arange(1, grid_size + 1) / (grid_size + 1)
            areas.append(_area_between(e, np.zeros(grid_size)))
        assert areas[1] > areas[0]
        assert areas[1] < 0.5
        assert 0.5 - areas[1] < 2.0 / 1000.0

    def test_bounded_for_random_monotone_curves(self, rng):
        for _ in range(50):
            gs = int(rng.integers(3, 200))
            e = np.arange(1, gs + 1) / (gs + 1)
            obs = np.sort(rng.uniform(0, 1, gs))
            assert 0.0 <= _area_between(e, obs) <= 0.5

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 12), grid_size=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
    def test_stacked_curves_match_one_curve_at_a_time(self, rows, grid_size, seed):
        # the adversarial sweep takes a trial's areas in one call
        rng = np.random.default_rng(seed)
        e = np.arange(1, grid_size + 1) / (grid_size + 1)
        obs = np.cumsum(rng.integers(0, 5, (rows, grid_size)), axis=1) / rng.integers(1, 500)
        stacked = _area_between(e, obs)
        assert stacked.shape == (rows,)
        assert stacked.tobytes() == np.array([_area_between(e, o) for o in obs]).tobytes()


class TestAdversarialGroupCalibration:
    def test_full_fraction_degenerates_to_global_area(self):
        p = gaussian_null(400, seed=6, sigma_scale=0.5)
        full = calibration_curve(p).miscalibration_area
        adv = adversarial_group_calibration(p, [1.0], trials=5, subgroups=3, seed=RngSeed(1))
        assert adv.mean_worst_area[0] == pytest.approx(full, abs=1e-12)
        assert adv.std_error[0] == 0.0

    def test_determinism(self):
        p = gaussian_null(300, seed=7)
        a = adversarial_group_calibration(p, [0.1, 0.5], trials=8, subgroups=4, seed=RngSeed(9))
        b = adversarial_group_calibration(p, [0.1, 0.5], trials=8, subgroups=4, seed=RngSeed(9))
        np.testing.assert_array_equal(a.mean_worst_area, b.mean_worst_area)
        np.testing.assert_array_equal(a.std_error, b.std_error)

    def test_small_groups_are_noisier_on_calibrated_data(self):
        p = gaussian_null(20_000, seed=8)
        adv = adversarial_group_calibration(
            p, [0.01, 0.05, 0.25], trials=30, subgroups=10, seed=RngSeed(2)
        )
        assert adv.mean_worst_area[0] > adv.mean_worst_area[1] > adv.mean_worst_area[2]

    def test_areas_bounded(self):
        p = gaussian_null(1000, seed=9, sigma_scale=0.2)
        adv = adversarial_group_calibration(p, [0.05, 1.0], trials=10, subgroups=5, seed=RngSeed(3))
        assert np.all(adv.mean_worst_area >= 0.0)
        assert np.all(adv.mean_worst_area <= 0.5)

    def test_fraction_too_small(self):
        p = gaussian_null(100, seed=10)
        with pytest.raises(FractionTooSmallError):
            adversarial_group_calibration(p, [0.005], trials=2, subgroups=2, seed=RngSeed(0))

    @pytest.mark.parametrize("fractions", [[np.nan], [0.5, np.nan], [0.0], [1.5]])
    def test_fraction_outside_the_unit_interval(self, fractions):
        p = gaussian_null(100, seed=10)
        with pytest.raises(DomainError, match=r"fractions must lie in \(0, 1\]"):
            adversarial_group_calibration(p, fractions, trials=2, subgroups=2)


def counted_proportions(y, mu, sigma, grid_size=99):
    """Observed proportions counted directly: mean of Φ(z) <= p over sigma > 0."""
    used = sigma > 0.0
    phi = std_normal_cdf((y[used] - mu[used]) / sigma[used])
    expected = np.arange(1, grid_size + 1) / (grid_size + 1)
    return (phi[None, :] <= expected[:, None]).mean(axis=1)


class TestBinnedCounting:
    @pytest.mark.parametrize("grid_size", [1, 9, 99, 250])
    def test_matches_a_direct_count(self, rng, grid_size):
        n = 700
        mu, sigma = rng.normal(size=n), rng.uniform(0.1, 2.0, n)
        sigma[rng.random(n) < 0.2] = 0.0
        y = mu + rng.standard_normal(n)
        c = calibration_curve(make_pset(y, mu, sigma), grid_size)
        np.testing.assert_array_equal(c.observed, counted_proportions(y, mu, sigma, grid_size))

    def test_points_on_grid_values_count_there(self):
        # Φ(0) = 0.5 is the middle grid value of a 9-point grid and counts from it on
        c = calibration_curve(make_pset([0.0, 0.0, 5.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]), 9)
        np.testing.assert_array_equal(c.observed * 3, [0, 0, 0, 0, 2, 2, 2, 2, 2])

    def test_adversarial_subgroups_skip_zero_sigma_points(self):
        p = gaussian_null(400, seed=11, sigma_scale=0.5)
        sigma = p.sigma.copy()
        sigma[::4] = 0.0
        q = p.with_sigma(sigma)
        adv = adversarial_group_calibration(q, [1.0], trials=1, subgroups=2, seed=RngSeed(4))
        assert adv.mean_worst_area[0] == calibration_curve(q).miscalibration_area

    def test_subgroup_without_two_usable_points(self):
        # the whole set has a curve; a subgroup of 2 rows drawn from it need not
        sigma = np.zeros(10)
        sigma[[3, 8]] = 1.0
        p = make_pset(np.arange(10.0), np.zeros(10), sigma)
        with pytest.raises(AllSigmaZeroError, match="subgroup of size 2 has 1 usable points"):
            adversarial_group_calibration(p, [0.2], trials=1, subgroups=1)


CURVE_BUILDERS = {
    "calibration_curve": calibration_curve,
    "adversarial": lambda p: adversarial_group_calibration(p, [1.0], trials=1, subgroups=1),
    "fit_scalar": fit_scalar,
}


@pytest.mark.parametrize("builder", CURVE_BUILDERS)
@pytest.mark.parametrize("n_usable, message", [
    (0, "every sigma is zero; no calibration curve exists"),
    (1, "need >= 2 points with sigma > 0, got 1"),
])
def test_fewer_than_two_usable_points_have_no_curve(builder, n_usable, message):
    sigma = np.zeros(6)
    sigma[:n_usable] = 0.5
    with pytest.raises(AllSigmaZeroError, match=f"^{message}$") as info:
        CURVE_BUILDERS[builder](make_pset(np.arange(6.0), np.zeros(6), sigma))
    assert isinstance(info.value, DomainError)


class TestOverflowingResidualRatio:
    """A sigma > 0 point whose z overflows is used, not excluded as sigma == 0:
    z = +inf has Φ = 1 and z = -inf has Φ = 0."""

    Y, MU = [1.0, 0.5, -0.3, 2.0, 0.0], [0.0, 0.1, 0.2, 1.0, -1.0]

    def test_curve_counts_the_point(self):
        c = calibration_curve(make_pset(self.Y, self.MU, [5e-324, 1.0, 0.5, 0.7, 0.9]))
        assert (c.n_used, c.n_excluded_zero_sigma) == (5, 0)
        # the same as a large finite z in that row
        ref = calibration_curve(make_pset([1e300, *self.Y[1:]], self.MU, [1.0, 1.0, 0.5, 0.7, 0.9]))
        np.testing.assert_array_equal(c.observed, ref.observed)
        assert c.miscalibration_area == ref.miscalibration_area

    def test_negative_overflow_counts_everywhere(self):
        c = calibration_curve(make_pset([-1.0, *self.Y[1:]], self.MU, [5e-324, 1.0, 0.5, 0.7, 0.9]))
        ref = calibration_curve(make_pset([-1e300, *self.Y[1:]], self.MU, [1.0, 1.0, 0.5, 0.7, 0.9]))
        np.testing.assert_array_equal(c.observed, ref.observed)
        assert c.observed[0] == 0.2

    def test_residual_that_overflows(self):
        c = calibration_curve(make_pset([1e308, *self.Y[1:]], [-1e308, *self.MU[1:]],
                                        [1.0, 1.0, 0.5, 0.7, 0.9]))
        assert c.n_used == 5
        assert np.isposinf(normalized_residuals(make_pset([1e308], [-1e308], [1.0]))[0])

    def test_adversarial_and_fit_use_it(self):
        p = make_pset(self.Y, self.MU, [5e-324, 1.0, 0.5, 0.7, 0.9])
        adv = adversarial_group_calibration(p, [1.0], trials=2, subgroups=2)
        assert adv.mean_worst_area[0] == calibration_curve(p).miscalibration_area
        ref = fit_scalar(make_pset([1e300, *self.Y[1:]], self.MU, [1.0, 1.0, 0.5, 0.7, 0.9]))
        res = fit_scalar(p)
        assert (res.area_before, res.area_after) == (ref.area_before, ref.area_after)
