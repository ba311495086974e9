"""Synthetic generator self-consistency."""

import numpy as np
import pytest

from uqregress import io
from uqregress.core import DatasetFile, RngSeed
from uqregress.datagen import (
    calibrated_prediction_set,
    generate_synthetic,
    noise_std,
    true_function,
)
from uqregress.errors import DomainError


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(100, 3, RngSeed(5))
        b = generate_synthetic(100, 3, RngSeed(5))
        np.testing.assert_array_equal(a.dataset.features, b.dataset.features)
        np.testing.assert_array_equal(a.dataset.targets, b.dataset.targets)

    def test_empty(self):
        d = generate_synthetic(0, 4, RngSeed(1), n_groups=3)
        assert type(d) is DatasetFile and d.dataset.dim == 4
        assert d.dataset.n == 0 and d.dataset.features.shape == (0, 4) and d.dataset.groups == ()
        assert d.true_sigma.size == 0
        assert calibrated_prediction_set(d).n == 0

    def test_record_is_the_one_the_dataset_csv_reads_back(self, tmp_path):
        d = generate_synthetic(6, 2, RngSeed(4), n_groups=2)
        ds = d.dataset
        assert type(d) is DatasetFile and ds.dim == 2 and d.true_sigma.shape == (6,)
        io.write_dataset_csv(tmp_path / "d.csv", ds.ids, ds.features, ds.targets,
                             ds.groups, d.true_sigma)
        back = io.read_dataset_csv(tmp_path / "d.csv")
        assert type(back) is DatasetFile and back.dataset.dim == ds.dim
        assert (back.dataset.ids, back.dataset.groups) == (ds.ids, ds.groups)
        np.testing.assert_array_equal(back.dataset.features, ds.features)
        np.testing.assert_array_equal(back.true_sigma, d.true_sigma)

    def test_pooled_normalized_noise_is_standard(self):
        # generator self-consistency: (y - f(x)) / s(x) pooled is unit normal
        d = generate_synthetic(100_000, 3, RngSeed(9))
        z = (d.dataset.targets - true_function(d.dataset.features)) / d.true_sigma
        assert -0.02 <= z.mean() <= 0.02
        assert 0.99 <= z.std() <= 1.01

    def test_noise_std_formula(self):
        X = np.array([[0.0, 1.0], [-2.0, 0.0], [3.0, 5.0]])
        np.testing.assert_allclose(noise_std(X), [0.05, 0.45, 0.65])

    def test_features_in_cube(self):
        d = generate_synthetic(5000, 2, RngSeed(3))
        assert d.dataset.features.min() >= -3.0
        assert d.dataset.features.max() <= 3.0

    def test_groups_partition_by_first_coordinate(self):
        d = generate_synthetic(2000, 2, RngSeed(6), n_groups=4)
        groups = np.asarray(d.dataset.groups)
        assert set(groups) == {"g0", "g1", "g2", "g3"}
        x0 = d.dataset.features[:, 0]
        assert x0[groups == "g0"].max() < x0[groups == "g3"].min()

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            generate_synthetic(-1, 2, RngSeed(0))
        with pytest.raises(DomainError):
            generate_synthetic(10, 0, RngSeed(0))

    def test_empty_draw_of_a_dim_no_array_can_hold(self):
        with pytest.raises(DomainError, match=f"^dim is {10**20}, more than"):
            generate_synthetic(0, 10**20, RngSeed(0))

    def test_oracle_prediction_set_is_calibrated(self):
        from uqregress.calibration import calibration_curve

        d = generate_synthetic(50_000, 2, RngSeed(7))
        p = calibrated_prediction_set(d)
        assert calibration_curve(p).miscalibration_area < 0.01
