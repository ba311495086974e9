"""Φ, Φ⁻¹, bounded Brent, ln Γ, ψ and the logistic are written without scipy;
here they are pinned to the scipy functions they replace, and the evidential
loss's ln Γ and ψ differences to 40-digit mpmath."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.optimize import minimize_scalar

from uqregress.calibration import calibration_curve
from uqregress.errors import DomainError, NonFiniteValueError
from uqregress.evidential import sigmoid
from uqregress.numerics import (
    BrentResult,
    brent_minimize,
    digamma,
    digamma_half_step,
    log_gamma,
    log_gamma_half_step,
    std_normal_cdf,
    std_normal_quantile,
)
from uqregress.recalibration import apply_scalar

from conftest import gaussian_null

ULPS = 8


def within_ulps(ours, theirs, ulps=ULPS):
    return np.abs(ours - theirs) <= ulps * np.spacing(np.abs(theirs))


class TestStdNormalCdfAgainstNdtr:
    def test_within_ulps_where_scipy_is_normal(self, rng):
        x = np.concatenate([np.linspace(-40.0, 40.0, 400_001), rng.normal(0.0, 5.0, 200_000),
                            [0.0, -0.0, 1.0, -1.0, 8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0)]])
        theirs = special.ndtr(x)
        ours = std_normal_cdf(x)
        normal = theirs >= np.finfo(np.float64).tiny
        assert np.all(within_ulps(ours[normal], theirs[normal]))
        assert np.all(np.abs(ours[~normal] - theirs[~normal]) <= 1e-300)

    def test_exact_limits(self):
        np.testing.assert_array_equal(std_normal_cdf([-np.inf, np.inf, -1e300, 1e300]),
                                      [0.0, 1.0, 0.0, 1.0])
        assert std_normal_cdf(-np.inf) == 0.0
        assert std_normal_cdf(np.inf) == 1.0

    def test_keeps_shape_and_scalar_type(self):
        assert isinstance(std_normal_cdf(0.3), float)
        assert std_normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert std_normal_cdf(np.array([])).shape == (0,)

    def test_nan_anywhere_is_a_domain_error(self):
        with pytest.raises(DomainError, match="non-NaN"):
            std_normal_cdf(np.array([0.0, np.nan, 1.0]))


class TestStdNormalQuantileAgainstNdtri:
    def test_within_ulps_on_the_open_interval(self, rng):
        p = np.concatenate([10.0 ** rng.uniform(-300.0, -1.0, 50_000),
                            rng.uniform(1e-300, 1.0, 100_000),
                            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 50_000)])
        p = p[(p > 1e-300) & (p < 1.0 - 1e-16)]
        assert np.all(within_ulps(std_normal_quantile(p), special.ndtri(p)))

    def test_grid_levels(self):
        p = np.arange(1, 100) / 100.0
        assert np.all(within_ulps(std_normal_quantile(p), special.ndtri(p)))
        assert std_normal_quantile(0.5) == 0.0
        assert isinstance(std_normal_quantile(0.25), float)

    def test_domain(self):
        with pytest.raises(DomainError):
            std_normal_quantile(np.array([0.2, 1.0]))


def relative_error(ours, ref):
    return np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))


class TestHalfStepsAgainstMpmath:
    """ln Γ(α) − ln Γ(α + ½) and ψ(α) − ψ(α + ½) over the evidential head's
    range α >= 1 + 1e-6, where differencing two large ln Γ values would lose
    digits (scipy's differenced gammaln is off by about 3e-4 at 1e12)."""

    @pytest.fixture(scope="class")
    def alpha(self):
        rng = np.random.default_rng(7)
        return np.concatenate([1.0 + 10.0 ** rng.uniform(-6.0, 0.0, 300),
                               10.0 ** rng.uniform(0.0, 12.0, 700), [1.0 + 1e-6, 2.0, 16.5, 1e12]])

    @pytest.mark.parametrize("ours, exact", [
        (log_gamma_half_step, mpmath.loggamma),
        (digamma_half_step, mpmath.digamma),
    ])
    def test_within_1e13(self, alpha, ours, exact):
        with mpmath.workdps(40):
            ref = np.array([float(exact(mpmath.mpf(a)) - exact(mpmath.mpf(a) + 0.5)) for a in alpha])
        assert relative_error(ours(alpha), ref).max() <= 1e-13

    def test_keeps_shape(self):
        a = np.array([[1.5, 2.0], [3.0, 40.0]])
        assert log_gamma_half_step(a).shape == digamma_half_step(a).shape == (2, 2)
        assert log_gamma_half_step(a)[1, 0] == log_gamma_half_step(3.0)


class TestLogGammaAndDigammaAgainstScipy:
    @pytest.fixture(scope="class")
    def x(self):
        rng = np.random.default_rng(8)
        return np.concatenate([10.0 ** rng.uniform(-3.0, 6.0, 200_000), rng.uniform(1e-3, 5.0, 100_000),
                               [1e-3, 1.0, 2.0, 1.4616321449683622, 1e6]])

    @pytest.mark.parametrize("ours, theirs", [(log_gamma, special.gammaln), (digamma, special.psi)])
    def test_within_1e14(self, x, ours, theirs):
        assert relative_error(ours(x), theirs(x)).max() <= 1e-14

    def test_log_gamma_is_exactly_zero_at_one_and_two(self):
        assert log_gamma(1.0) == log_gamma(2.0) == 0.0
        assert log_gamma(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]

    def test_beyond_the_float_range(self):
        assert log_gamma(1e306) == special.gammaln(1e306) == math.inf
        assert digamma(5e-324) == special.psi(5e-324) == -math.inf

    def test_domain(self):
        for f, name in ((log_gamma, "log_gamma"), (digamma, "digamma")):
            for bad in (0.0, -1.0, np.inf, np.nan):
                with pytest.raises(DomainError, match=f"^{name} requires x > 0$"):
                    f(np.array([1.0, bad]))


def test_sigmoid_within_2_ulp_of_expit():
    x = np.random.default_rng(9).normal(size=1_000_000)
    assert np.all(within_ulps(sigmoid(x), special.expit(x), ulps=2))


def scipy_brent(f, lo, hi, tol=1e-6, max_iter=200) -> BrentResult:
    """What brent_minimize returned when it called scipy."""
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": tol, "maxiter": max_iter})
    return BrentResult(argmin=float(min(max(res.x, lo), hi)), value=float(res.fun),
                       iterations=int(res.nit), converged=bool(res.success))


def area_objective(p):
    return lambda t: calibration_curve(apply_scalar(p, float(np.exp(t)))).miscalibration_area


class TestBrentAgainstScipy:
    @pytest.mark.parametrize("f, lo, hi, tol", [
        (lambda s: (s - 2.0) ** 2, 0.1, 10.0, 1e-8),
        (lambda x: (x - 0.3) ** 2 + np.cos(7 * x), -1.0, 2.0, 1e-6),
        (lambda s: abs(s - 0.3), 0.0, 1.0, 1e-7),
        (lambda s: math.exp(s) - 3.0 * s, -2.0, 4.0, 1e-10),
    ])
    def test_smooth_and_kinked(self, f, lo, hi, tol):
        assert brent_minimize(f, lo, hi, tol=tol) == scipy_brent(f, lo, hi, tol=tol)

    def test_random_quartics(self, rng):
        for _ in range(40):
            a, b = rng.uniform(-0.8, 0.8), rng.uniform(0.1, 3.0)
            f = lambda s, a=a, b=b: (s - a) ** 4 + b * (s - a) ** 2
            assert brent_minimize(f, -1.0, 1.0) == scipy_brent(f, -1.0, 1.0)

    @pytest.mark.parametrize("f", [lambda s: 4.25, lambda s: float(np.floor(7.0 * s) % 3)])
    def test_flat(self, f):
        assert brent_minimize(f, -1.0, 1.0) == scipy_brent(f, -1.0, 1.0)

    @pytest.mark.parametrize("seed, scale", [(15, 0.4), (3, 2.0), (21, 1.0)])
    def test_piecewise_constant_area(self, seed, scale):
        f = area_objective(gaussian_null(400, seed=seed, sigma_scale=scale))
        lo, hi = math.log(1.0 / scale) - 0.6, math.log(1.0 / scale) + 0.6
        ours = brent_minimize(f, lo, hi)
        assert ours == scipy_brent(f, lo, hi)
        assert ours.iterations > 5

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 7])
    def test_max_iter_exhausted(self, max_iter):
        f = lambda x: (x - 0.3) ** 2 + np.cos(7 * x)
        ours = brent_minimize(f, -1.0, 2.0, tol=1e-12, max_iter=max_iter)
        assert ours == scipy_brent(f, -1.0, 2.0, tol=1e-12, max_iter=max_iter)
        assert not ours.converged

    def test_nan_at_the_last_probe(self):
        f = lambda s: s if s < 0.6 else float("nan")
        ours = brent_minimize(f, 0.0, 1.0, max_iter=2)
        assert ours == scipy_brent(f, 0.0, 1.0, max_iter=2)
        assert not ours.converged and ours.iterations == 2

    def test_nan_region(self):
        f = lambda s: (s - 0.2) ** 2 if s < 0.6 else float("nan")
        assert brent_minimize(f, 0.0, 1.0) == scipy_brent(f, 0.0, 1.0)

    def test_nan_everywhere_raises_at_scipys_point(self):
        theirs = minimize_scalar(lambda s: float("nan"), bounds=(0.0, 1.0), method="bounded",
                                 options={"xatol": 1e-6, "maxiter": 200})
        assert not theirs.success
        with pytest.raises(NonFiniteValueError, match=re.escape(f"x={float(theirs.x)}")):
            brent_minimize(lambda s: float("nan"), 0.0, 1.0)
