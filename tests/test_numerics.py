"""Special-function accuracy against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

import ndtr_reference
from uqregress import numerics
from uqregress.errors import DegenerateSampleError, DomainError, NonFiniteValueError
from uqregress.numerics import (
    _SQRT_2PI,
    brent_minimize,
    digamma,
    kde_scott,
    log_gamma,
    scott_bandwidth,
    std_normal_cdf,
    std_normal_quantile,
)

mpmath.mp.dps = 50


def erf_taylor(x: float) -> float:
    """Independent erf oracle: Maclaurin series in 50-digit arithmetic."""
    xm = mpmath.mpf(x)
    total = mpmath.mpf(0)
    term_k = xm
    for k in range(0, 200):
        total += term_k / (2 * k + 1)
        term_k = term_k * (-(xm**2)) / (k + 1)
        if abs(term_k) < mpmath.mpf(10) ** -45:
            break
    return float(2 / mpmath.sqrt(mpmath.pi) * total)


def cdf_oracle(x: float) -> float:
    return 0.5 * (1.0 + erf_taylor(x / math.sqrt(2.0)))


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_two_sigma_coverage(self):
        # one-sided 0.9772 <-> the ~95% two-sided coverage convention
        assert abs(std_normal_cdf(2.0) - 0.9772) < 5e-5

    def test_against_erf_series_oracle(self):
        for x in (1.0, -1.3, 0.25, 2.75, -3.5):
            assert abs(std_normal_cdf(x) - cdf_oracle(x)) < 1e-12

    def test_reflection_identity(self, rng):
        x = rng.uniform(-6, 6, 10_000)
        np.testing.assert_allclose(std_normal_cdf(-x), 1.0 - std_normal_cdf(x), atol=1e-12)

    def test_monotone(self, rng):
        pairs = rng.uniform(-8, 8, (10_000, 2))
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        assert np.all(std_normal_cdf(lo) <= std_normal_cdf(hi))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))


def _band_edges() -> np.ndarray:
    """erfc's band edges |a| = 1, 8 and sqrt(MAXLOG), each +-1 ulp, of both signs."""
    edges = np.array([1.0, 8.0, math.sqrt(ndtr_reference.MAXLOG)])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    return np.concatenate([edges, -edges])


class TestCephesReference:
    """Φ and erfc equal the polevl/p1evl loops over cephes' own tables, bit for bit."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf])

    def test_erfc_at_band_edges_and_specials(self):
        a = np.concatenate([_band_edges(), self.SPECIAL])
        np.testing.assert_array_equal(numerics._erfc(a), ndtr_reference.erfc(a))

    def test_cdf_at_band_edges_and_specials(self):
        # the edges in Φ's own argument and the Φ inputs nearest erfc's edges
        edges = _band_edges()
        x = np.concatenate([edges, edges * math.sqrt(2.0), self.SPECIAL])
        np.testing.assert_array_equal(std_normal_cdf(x), ndtr_reference.std_normal_cdf(x))

    def test_cdf_on_normal_draws(self, rng):
        # scale 10 puts a quarter of the draws in the |a| >= 8 band
        x = rng.normal(0.0, 10.0, 1_000_000)
        np.testing.assert_array_equal(std_normal_cdf(x), ndtr_reference.std_normal_cdf(x))


def quantile_bisection(p: float, lo=-10.0, hi=10.0) -> float:
    """Independent quantile oracle: bisection on the CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_three_sigma_level(self):
        # 0.99865 one-sided <-> the 99.73% two-sided (mu +/- 3 sigma) level
        assert abs(std_normal_quantile(0.99865) - 3.0) < 1e-3

    def test_against_bisection_oracle(self):
        for p in (0.75, 0.2, 0.99, 0.011):
            assert abs(std_normal_quantile(p) - quantile_bisection(p)) < 1e-10
        assert abs(std_normal_quantile(0.75) - 0.67449) < 1e-5

    def test_round_trip(self, rng):
        p = rng.uniform(0.001, 0.999, 10_000)
        err = np.abs(std_normal_cdf(std_normal_quantile(p)) - p)
        assert err.max() <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14

    def test_recurrence_oracle_at_7_3(self):
        # ln G(7.3) = ln G(1.3) + sum ln(1.3 + k), seeded by 50-digit small-argument value
        expected = mpmath.loggamma(mpmath.mpf("1.3"))
        for k in range(6):
            expected += mpmath.log(mpmath.mpf("1.3") + k)
        assert abs(log_gamma(7.3) - float(expected)) < 1e-12

    def test_recurrence_sweep(self, rng):
        x = rng.uniform(0.1, 50.0, 10_000)
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + np.log(x)
        rel = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))
        assert rel.max() <= 1e-10

    def test_domain(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                log_gamma(bad)


class TestDigamma:
    def test_euler_mascheroni(self):
        # finite difference of log_gamma is the stated oracle
        h = 1e-6
        fd = (log_gamma(1.0 + h) - log_gamma(1.0 - h)) / (2 * h)
        assert abs(digamma(1.0) - fd) < 1e-6
        assert abs(digamma(1.0) + 0.5772156649015329) < 1e-12

    def test_half_argument_closed_form(self):
        gamma_em = 0.5772156649015329
        assert abs(digamma(0.5) - (-gamma_em - 2.0 * math.log(2.0))) < 1e-12

    def test_recurrence(self, rng):
        x = rng.uniform(0.1, 50.0, 10_000)
        np.testing.assert_allclose(digamma(x + 1.0) - digamma(x), 1.0 / x, atol=1e-10)

    def test_matches_finite_difference_sweep(self, rng):
        x = rng.uniform(0.2, 30.0, 200)
        h = 1e-6
        fd = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
        np.testing.assert_allclose(digamma(x), fd, atol=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-3.0)


class TestBrentMinimize:
    def test_quadratic_vertex(self):
        res = brent_minimize(lambda s: (s - 2.0) ** 2, 0.1, 10.0, tol=1e-8)
        assert res.converged
        assert abs(res.argmin - 2.0) < 1e-6
        assert 0.1 <= res.argmin <= 10.0

    def test_kink_against_grid_oracle(self):
        f = lambda s: abs(s - 0.3)
        grid = np.arange(0.0, 1.0 + 1e-6, 1e-6)
        oracle = grid[np.argmin(np.abs(grid - 0.3))]
        res = brent_minimize(f, 0.0, 1.0, tol=1e-7)
        assert abs(res.argmin - oracle) < 1e-5

    def test_constant_function(self):
        res = brent_minimize(lambda s: 4.25, -1.0, 1.0)
        assert res.converged
        assert res.value == 4.25
        assert -1.0 <= res.argmin <= 1.0

    def test_max_iter_returns_best_so_far(self):
        res = brent_minimize(lambda s: (s - 2.0) ** 2, 0.0, 10.0, tol=1e-12, max_iter=3)
        assert not res.converged
        assert 0.0 <= res.argmin <= 10.0

    @pytest.mark.parametrize("max_iter, evaluations", [(1, 2), (2, 2), (3, 3)])
    def test_max_iter_allows_at_least_two_evaluations(self, max_iter, evaluations):
        # the budget is first checked after the second evaluation, as scipy's maxfun
        calls = []
        res = brent_minimize(lambda s: calls.append(s) or (s - 2.0) ** 2, 0.0, 10.0,
                             tol=1e-12, max_iter=max_iter)
        assert len(calls) == res.iterations == evaluations
        assert not res.converged

    def test_random_unimodal_quartics(self, rng):
        for _ in range(25):
            a = rng.uniform(-0.8, 0.8)
            b = rng.uniform(0.1, 3.0)
            f = lambda s, a=a, b=b: (s - a) ** 4 + b * (s - a) ** 2
            res = brent_minimize(f, -1.0, 1.0, tol=1e-6)
            grid = np.linspace(-1, 1, 2_000_001)
            oracle = grid[np.argmin((grid - a) ** 4 + b * (grid - a) ** 2)]
            assert abs(res.argmin - oracle) <= 10 * 1e-6

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            brent_minimize(lambda s: s, 1.0, 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(DomainError, match=f"tol must be finite and positive, got {tol}"):
            brent_minimize(lambda s: (s - 1.0) ** 2, 0.0, 3.0, tol=tol)


class TestKdeScott:
    def test_all_equal_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            kde_scott([2.0, 2.0, 2.0], [0.0])

    def test_too_few_samples(self):
        with pytest.raises(DegenerateSampleError):
            kde_scott([1.0], [0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(NonFiniteValueError, match="^samples must be finite$"):
            kde_scott([1.0, bad, 2.0], [0.0])

    def test_overflowing_spread_is_degenerate(self):
        # each sample is finite, but their sum and so the std overflow
        samples = [1e308, 1.7e308, 1.5e308]
        for call in (lambda: scott_bandwidth(samples), lambda: kde_scott(samples, [0.0])):
            with pytest.raises(DegenerateSampleError, match="std is inf"):
                call()

    def test_standard_normal_density_at_zero(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(10_000)
        dens = kde_scott(samples, [0.0])
        assert abs(dens[0] - 0.3989) < 0.02

    def test_symmetric_samples_give_symmetric_density(self):
        samples = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        left = kde_scott(samples, [-1.7, -0.9, -0.2])
        right = kde_scott(samples, [1.7, 0.9, 0.2])
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_grid_chunks_change_no_bit(self, rng):
        """Chunked over the grid, the densities equal those taken one point at a time."""
        samples = rng.gamma(2.0, 0.5, 20_000)  # 50 grid points per chunk
        grid = np.linspace(-1.0, 8.0, 123)
        h = scott_bandwidth(samples)
        one_by_one = [np.exp(-0.5 * t * t).sum() / (samples.size * h * _SQRT_2PI)
                      for t in ((g - samples) / h for g in grid)]
        np.testing.assert_array_equal(kde_scott(samples, grid), one_by_one)

    def test_integrates_to_one(self, rng):
        samples = rng.normal(3.0, 2.0, 500)
        grid = np.linspace(samples.min() - 8, samples.max() + 8, 2000)
        dens = kde_scott(samples, grid)
        assert dens.min() >= 0.0
        assert abs(np.trapezoid(dens, grid) - 1.0) < 0.02
