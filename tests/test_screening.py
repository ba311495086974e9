"""Window + sigma gating and the mu +/- k*sigma honesty audit."""

import pytest

from uqregress.errors import DomainError
from uqregress.screening import ScreenCriteria, honesty_rate, screen

from conftest import gaussian_null, make_pset


def default_criteria(**kw):
    base = dict(value_lo=-0.1, value_hi=0.1, sigma_max=0.05, honesty_multiplier=3.0)
    base.update(kw)
    return ScreenCriteria(**base)


class TestScreen:
    def test_selected_and_honest_example(self):
        p = make_pset([0.10], [0.05], [0.04])
        rep = screen(p, default_criteria())
        assert rep.selected_ids == ("p0",)
        assert rep.honest_ids == ("p0",)  # |0.10 - 0.05| <= 3 * 0.04
        assert rep.dishonest_ids == ()

    def test_sigma_gate_blocks_regardless_of_window(self):
        p = make_pset([0.0], [0.0], [0.06])
        rep = screen(p, default_criteria())
        assert rep.n_selected == 0

    def test_dishonest_when_interval_misses(self):
        p = make_pset([0.30], [0.05], [0.04])  # |0.25| > 0.12
        rep = screen(p, default_criteria())
        assert rep.selected_ids == ("p0",)
        assert rep.dishonest_ids == ("p0",)

    def test_counts_partition_selection(self, rng):
        n = 500
        p = make_pset(rng.normal(0, 0.2, n), rng.normal(0, 0.2, n), rng.uniform(0, 0.1, n))
        rep = screen(p, default_criteria())
        assert rep.n_selected == rep.n_honest + rep.n_dishonest
        assert set(rep.honest_ids) | set(rep.dishonest_ids) == set(rep.selected_ids)
        assert set(rep.honest_ids) & set(rep.dishonest_ids) == set()

    def test_boundaries_inclusive(self):
        p = make_pset([0.0, 0.0, 0.0], [-0.1, 0.1, 0.05], [0.05, 0.05, 0.05])
        rep = screen(p, default_criteria())
        assert rep.n_selected == 3

    def test_input_order_preserved_and_idempotent(self, rng):
        n = 100
        p = make_pset(rng.normal(0, 0.1, n), rng.normal(0, 0.1, n), rng.uniform(0, 0.08, n))
        a = screen(p, default_criteria())
        b = screen(p, default_criteria())
        assert a == b
        order = [p.ids.tolist().index(i.encode()) for i in a.selected_ids]
        assert order == sorted(order)

    def test_ids_follow_input_order_with_groups(self):
        # ids out of sorted order, selection interleaved with rejected rows
        p = make_pset(y_true=[0.0, 9.0, 0.3, 9.0, 0.01, 0.0],
                      mu=[0.0, 9.0, 0.05, 0.0, 0.0, -0.05],
                      sigma=[0.01, 0.01, 0.04, 0.5, 0.02, 0.01],
                      groups=("g1", "g0", "g1", "g0", "g1", "g0"),
                      ids=("z", "y", "m", "x", "b", "a"))
        rep = screen(p, default_criteria())
        assert rep.selected_ids == ("z", "m", "b", "a")
        assert rep.honest_ids == ("z", "b")
        assert rep.dishonest_ids == ("m", "a")

    def test_joint_sigma_scaling_leaves_selection_unchanged(self, rng):
        n = 200
        p = make_pset(rng.normal(0, 0.1, n), rng.normal(0, 0.1, n), rng.uniform(0, 0.1, n))
        scaled = p.with_sigma(p.sigma * 6.0)
        a = screen(p, default_criteria())
        b = screen(scaled, default_criteria(sigma_max=0.05 * 6.0))
        assert a.selected_ids == b.selected_ids

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            ScreenCriteria(value_lo=0.1, value_hi=-0.1, sigma_max=0.05)

    @pytest.mark.parametrize("sigma_max", [0.0, float("nan")])
    def test_non_positive_sigma_max_rejected(self, sigma_max):
        with pytest.raises(DomainError, match=f"^sigma_max must be > 0, got {sigma_max}$"):
            ScreenCriteria(value_lo=-0.1, value_hi=0.1, sigma_max=sigma_max)


class TestHonestyRate:
    def test_calibrated_three_sigma_mass(self):
        p = gaussian_null(100_000, seed=1)
        assert honesty_rate(p, 3.0) == pytest.approx(0.9973, abs=0.005)

    def test_zero_multiplier(self):
        p = make_pset([1.0, 2.0], [0.5, 1.0], [0.1, 0.1])
        assert honesty_rate(p, 0.0) == 0.0

    @pytest.mark.parametrize("multiplier", [-1.0, float("nan")])
    def test_negative_or_nan_multiplier_rejected(self, multiplier):
        p = make_pset([1.0, 2.0], [0.5, 1.0], [0.1, 0.1])
        with pytest.raises(DomainError, match=f"multiplier must be >= 0, got {multiplier}"):
            honesty_rate(p, multiplier)

    def test_nondecreasing_in_multiplier(self):
        p = gaussian_null(5000, seed=2)
        rates = [honesty_rate(p, m) for m in (0.5, 1.0, 2.0, 3.0, 5.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
