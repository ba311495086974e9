"""Negatively oriented mean interval score: closed forms, propriety, and
bit-for-bit agreement with the two-hinge reference loop."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interval_score_reference as ref
from uqregress.core import RngSeed
from uqregress.numerics import std_normal_quantile
from uqregress.scoring import BLOCK_ROWS, COVERAGE_GRID, interval_score

from conftest import gaussian_null, make_pset


class TestIntervalScore:
    def test_pure_width_closed_form(self):
        # y = mu, sigma = 1: score = mean width = mean over c of 2 * quantile((1 + c) / 2)
        p = make_pset([0.0], [0.0], [1.0])
        rep = interval_score(p)
        widths = [2.0 * NormalDist().inv_cdf((1.0 + k / 100) / 2.0) for k in range(1, 100)]
        assert rep.mean_score == pytest.approx(sum(widths) / 99)
        assert rep.mean_score == pytest.approx(1.5800, abs=1e-4)

    def test_grid_is_percent_steps(self):
        np.testing.assert_allclose(COVERAGE_GRID, np.arange(1, 100) / 100.0)
        assert COVERAGE_GRID.shape == (99,)

    def test_homogeneity_when_no_penalty(self, rng):
        mu = rng.normal(size=40)
        sigma = rng.uniform(0.2, 2.0, 40)
        base = interval_score(make_pset(mu, mu, sigma))
        scaled = interval_score(make_pset(mu, mu, 3.5 * sigma))
        np.testing.assert_allclose(scaled.per_point_scores, 3.5 * base.per_point_scores, rtol=1e-12)

    def test_mean_is_mean_of_per_point(self, rng):
        p = make_pset(rng.normal(size=30), rng.normal(size=30), rng.uniform(0.1, 1, 30))
        rep = interval_score(p)
        assert rep.mean_score == pytest.approx(rep.per_point_scores.mean(), rel=1e-14)

    def test_averaging_order_identity(self, rng):
        # per-level global means averaged == per-point means averaged
        y = rng.normal(size=50)
        mu = y + rng.normal(0, 0.5, 50)
        sigma = rng.uniform(0.2, 1.5, 50)
        per_level = []
        for c in COVERAGE_GRID:
            a = 1.0 - c
            z = std_normal_quantile(1.0 - a / 2.0)
            lo, hi = mu - z * sigma, mu + z * sigma
            s = (hi - lo) + (2 / a) * np.maximum(lo - y, 0) + (2 / a) * np.maximum(y - hi, 0)
            per_level.append(s.mean())
        rep = interval_score(make_pset(y, mu, sigma))
        assert np.mean(per_level) == pytest.approx(rep.mean_score, rel=1e-12)

    def test_score_exceeds_width_under_misses(self, rng):
        mu = np.zeros(20)
        sigma = np.full(20, 0.5)
        width_only = interval_score(make_pset(mu, mu, sigma))
        missed = interval_score(make_pset(mu + 5.0, mu, sigma))
        assert np.all(missed.per_point_scores > width_only.per_point_scores)

    def test_strictly_increasing_in_sigma_at_truth(self):
        scores = [
            interval_score(make_pset([1.0], [1.0], [s])).mean_score
            for s in (0.1, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_zero_sigma_scores_penalty_only(self):
        rep = interval_score(make_pset([1.0], [0.0], [0.0]))
        # width 0; penalty (2/a)*|1-0| at each miss rate a = 1 - c
        assert rep.mean_score == pytest.approx(sum(2.0 / (1.0 - k / 100) for k in range(1, 100)) / 99)

    def test_positive_for_positive_sigma(self, rng):
        p = make_pset(rng.normal(size=50), rng.normal(size=50), rng.uniform(0.01, 2, 50))
        assert np.all(interval_score(p).per_point_scores > 0.0)

    def test_propriety_small_scale(self):
        # empirical mean score minimized near the true center
        rng = RngSeed(5).generator()
        y = 1.3 + 0.8 * rng.standard_normal(20_000)
        candidates = 1.3 + np.linspace(-0.5, 0.5, 11)
        means = [
            interval_score(make_pset(y, np.full_like(y, c), np.full_like(y, 0.8))).mean_score
            for c in candidates
        ]
        best = candidates[int(np.argmin(means))]
        assert abs(best - 1.3) <= 0.1 + 1e-12


HALF_WIDTH_Z = std_normal_quantile(1.0 - (1.0 - COVERAGE_GRID) / 2.0)
MAX = np.finfo(np.float64).max
# zeros of both signs, the smallest subnormal, the smallest normal, and values
# near the top of the range whose differences overflow to inf
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, MAX, -MAX]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# 1e308 * z overflows the half-width itself, so inf - inf gives NaN scores
SIGMAS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1.0, 1e154, 1e308, MAX]),
                   st.floats(min_value=0.0, allow_infinity=False))
FREE = st.tuples(VALUES, VALUES, SIGMAS)
AT_TRUTH = st.builds(lambda mu, s: (mu, mu, s), VALUES, SIGMAS)
# |y - mu| equal to one level's half-width exactly: mu is a zero, y is ±half
ON_EDGE = st.builds(
    lambda j, sign, mu, s: (sign * float(HALF_WIDTH_Z[j] * s), mu, s),
    st.integers(0, COVERAGE_GRID.size - 1), st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=1e300),
)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def assert_same_as_reference(p):
    got = interval_score(p)
    want_mean, want_per_point = ref.interval_score(p)
    np.testing.assert_array_equal(bits(got.per_point_scores), bits(want_per_point))
    assert bits(got.mean_score) == bits(want_mean)


class TestAgainstTwoHingeReference:
    """One hinge on |y - mu| against the two one-sided hinges it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(FREE, AT_TRUTH, ON_EDGE), min_size=1, max_size=12))
    def test_bit_identical_on_edge_inputs(self, points):
        y, mu, sigma = zip(*points)
        assert_same_as_reference(make_pset(y, mu, sigma))

    def test_bit_identical_at_named_edges(self):
        j = 40
        half = HALF_WIDTH_Z[j] * 2.5
        # y = mu at sigma = ±0; a miss at sigma = 0; |y - mu| = half on both sides;
        # residuals that overflow to ±inf; an inf residual against an inf
        # half-width (NaN); a finite one against it (inf); subnormals
        y = [0.0, -0.0, 1.0, half, -half, MAX, -MAX, MAX, 1.0, 5e-324, -5e-324]
        mu = [0.0, 0.0, 0.0, 0.0, -0.0, -MAX, MAX, -MAX, 0.0, 0.0, 5e-324]
        sigma = [0.0, -0.0, 0.0, 2.5, 2.5, 1.0, 1.0, 1e308, 1e308, 5e-324, 0.0]
        p = make_pset(y, mu, sigma)
        assert_same_as_reference(p)
        scores = interval_score(p).per_point_scores
        assert np.isinf(scores[[5, 6, 8]]).all() and np.isnan(scores[7])

    def test_bit_identical_on_a_gaussian_sample(self):
        assert_same_as_reference(gaussian_null(100_000, seed=3, sigma_scale=0.7))


BLOCK_SIZES = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]


class TestRowBlocks:
    """Points scored BLOCK_ROWS at a time against the whole-column reference."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.one_of(FREE, AT_TRUTH, ON_EDGE), min_size=2, max_size=8))
    def test_bit_identical_with_edges_at_block_boundaries(self, n, points):
        rng = RngSeed(n).generator()
        mu = rng.normal(size=n)
        sigma = rng.uniform(0.0, 1.0, n)
        y = mu + sigma * rng.standard_normal(n)
        # the drawn points sit on both sides of each block boundary and of the end
        half = len(points) // 2
        for edge in (*range(BLOCK_ROWS, n, BLOCK_ROWS), n):
            rows = [(edge - half + i) % n for i in range(len(points))]
            y[rows], mu[rows], sigma[rows] = zip(*points)
        assert_same_as_reference(make_pset(y, mu, sigma))
