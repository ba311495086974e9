"""Negatively oriented mean interval score: closed forms and propriety."""

from statistics import NormalDist

import numpy as np
import pytest

from uqregress.core import RngSeed
from uqregress.numerics import std_normal_quantile
from uqregress.scoring import COVERAGE_GRID, interval_score

from conftest import make_pset


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
