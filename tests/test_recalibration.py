"""Scalar recalibration: known-multiplier oracles and scale-invariance."""

import numpy as np
import pytest

from uqregress.calibration import calibration_curve
from uqregress.errors import AllSigmaZeroError, DomainError, NonPositiveScalarError
from uqregress.metrics import accuracy, dispersion, sharpness
from uqregress.numerics import brent_minimize
from uqregress.recalibration import PRESCAN_POINTS, apply_scalar, fit_scalar

from conftest import gaussian_null, make_pset


def _curve_per_evaluation_fit(p, grid_size=99):
    """fit_scalar as it was first written: one full calibration curve of
    apply_scalar(p, s) per evaluation of the objective."""

    def area_at(t):
        return calibration_curve(apply_scalar(p, float(np.exp(t))), grid_size).miscalibration_area

    scan_t = np.linspace(np.log(1e-3), np.log(1e3), PRESCAN_POINTS)
    scan_area = np.array([area_at(t) for t in scan_t])
    best = int(np.argmin(scan_area))
    brent = brent_minimize(area_at, scan_t[max(best - 1, 0)],
                           scan_t[min(best + 1, PRESCAN_POINTS - 1)], tol=1e-6, max_iter=200)
    if brent.value <= scan_area[best]:
        t_star, area_after = brent.argmin, brent.value
    else:
        t_star, area_after = float(scan_t[best]), float(scan_area[best])
    return float(np.exp(t_star)), calibration_curve(p, grid_size).miscalibration_area, area_after, brent


class TestApplyScalar:
    def test_identity(self):
        p = gaussian_null(50, seed=1)
        q = apply_scalar(p, 1.0)
        np.testing.assert_array_equal(q.sigma, p.sigma)
        np.testing.assert_array_equal(q.mu, p.mu)

    def test_doubling(self):
        p = make_pset([0.0, 0.0], [0.0, 0.0], [0.1, 0.2])
        np.testing.assert_allclose(apply_scalar(p, 2.0).sigma, [0.2, 0.4])

    @pytest.mark.parametrize("s", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_positive(self, s):
        with pytest.raises(NonPositiveScalarError):
            apply_scalar(gaussian_null(10, seed=2), s)

    def test_sharpness_homogeneity(self):
        p = gaussian_null(200, seed=3)
        assert sharpness(apply_scalar(p, 4.0)) == pytest.approx(4.0 * sharpness(p), rel=1e-12)

    def test_cv_invariant(self):
        p = gaussian_null(300, seed=4)
        assert dispersion(apply_scalar(p, 9.0)).cv == pytest.approx(dispersion(p).cv, rel=1e-12)

    def test_iqr_scales_exactly(self):
        p = gaussian_null(300, seed=5)
        assert dispersion(apply_scalar(p, 2.5)).iqr == pytest.approx(
            2.5 * dispersion(p).iqr, rel=1e-12
        )

    def test_accuracy_untouched(self):
        p = gaussian_null(100, seed=6)
        assert accuracy(apply_scalar(p, 3.0)) == accuracy(p)


class TestFitScalar:
    def test_halved_sigma_recovers_factor_two(self):
        p = gaussian_null(20_000, seed=7, sigma_scale=0.5)
        res = fit_scalar(p)
        assert 1.9 <= res.scalar <= 2.1
        assert res.area_after <= res.area_before

    def test_calibrated_data_stays_near_one(self):
        p = gaussian_null(20_000, seed=8)
        res = fit_scalar(p)
        assert 0.95 <= res.scalar <= 1.05

    def test_never_worse_than_uncalibrated_with_default_bracket(self):
        for seed in (9, 10, 11):
            p = gaussian_null(2000, seed=seed, sigma_scale=3.0)
            res = fit_scalar(p)
            assert res.area_after <= res.area_before + 1e-9

    def test_area_after_is_reproducible(self):
        p = gaussian_null(5000, seed=12, sigma_scale=0.3)
        res = fit_scalar(p)
        recomputed = calibration_curve(apply_scalar(p, res.scalar)).miscalibration_area
        assert recomputed == res.area_after

    @pytest.mark.parametrize("zero_every", [0, 3])
    def test_matches_one_curve_per_evaluation(self, zero_every):
        p = gaussian_null(3000, seed=15, sigma_scale=0.4)
        if zero_every:  # sigma == 0 points are excluded from every area
            sigma = p.sigma.copy()
            sigma[::zero_every] = 0.0
            p = p.with_sigma(sigma)
        res = fit_scalar(p)
        assert (res.scalar, res.area_before, res.area_after, res.brent) == _curve_per_evaluation_fit(p)
        if zero_every:
            assert calibration_curve(p).n_excluded_zero_sigma == 1000

    def test_single_positive_sigma_raises(self):
        sigma = np.zeros(50)
        sigma[7] = 0.3
        p = make_pset(np.linspace(-1, 1, 50), np.zeros(50), sigma)
        with pytest.raises(DomainError, match="need >= 2 points with sigma > 0, got 1"):
            fit_scalar(p)

    def test_scalar_inside_bracket(self):
        p = gaussian_null(2000, seed=13, sigma_scale=0.01)
        res = fit_scalar(p, bracket_lo=0.5, bracket_hi=2.0)
        assert 0.5 <= res.scalar <= 2.0

    @pytest.mark.parametrize("bracket_lo", [1e-3, 1.0])
    def test_infinite_bracket_hi_is_refused(self, bracket_lo):
        # an infinite upper end has no log-space grid: refused by name, not
        # reported as a non-finite scalar after the pre-scan
        with pytest.raises(DomainError, match=rf"\[{bracket_lo}, inf\]: need 0 < bracket_lo < "
                                              r"bracket_hi < inf"):
            fit_scalar(gaussian_null(200, seed=13), bracket_lo=bracket_lo, bracket_hi=np.inf)

    def test_all_sigma_zero(self):
        with pytest.raises(AllSigmaZeroError):
            fit_scalar(make_pset([1.0, 2.0], [1.0, 2.0], [0.0, 0.0]))

    def test_brent_metadata_present(self):
        res = fit_scalar(gaussian_null(1000, seed=14, sigma_scale=2.0))
        assert res.brent.iterations > 0
        assert res.grid_size == 99
