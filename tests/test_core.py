"""Data model invariants, validation errors, fold splitting, RNG contract,
and the one check behind every count argument."""

import argparse
import dataclasses
import re
import warnings

import numpy as np
import pytest

from uqregress import cli
from uqregress.calibration import adversarial_group_calibration, calibration_curve
from uqregress.core import (
    LabeledDataset,
    PredictionSet,
    RngSeed,
    check_count,
    counter_uniform,
    split_k_folds,
    validate_prediction_set,
)
from uqregress.errors import (
    DomainError,
    DuplicateIdError,
    KTooLargeError,
    LengthMismatchError,
    NegativeSigmaError,
    NonFiniteValueError,
)
from uqregress.datagen import calibrated_prediction_set, generate_synthetic
from uqregress.neural import MlpConfig, MlpModel, TrainConfig, loss_and_gradient, train
from uqregress.numerics import brent_minimize
from uqregress.uq_methods import DropoutSpec, EnsembleSpec

from conftest import make_pset


def small_dataset(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(
        ids=tuple(f"r{i}" for i in range(n)),
        features=rng.normal(size=(n, d)),
        targets=rng.normal(size=n),
    )


class TestValidatePredictionSet:
    def test_wellformed_returned_unchanged(self):
        p = make_pset([1.0, 2.0, 3.0], [1.1, 2.1, 2.9], [0.1, 0.2, 0.3])
        assert validate_prediction_set(p) is p

    def test_negative_sigma_names_index(self):
        p = make_pset([0.0, 0.0], [0.0, 0.0], [0.1, -0.2])
        with pytest.raises(NegativeSigmaError, match="index 1"):
            validate_prediction_set(p)

    def test_length_mismatch(self):
        p = PredictionSet(ids=("a", "b", "c"), y_true=[1.0, 2.0, 3.0],
                          mu=[1.0, 2.0], sigma=[0.1, 0.1, 0.1])
        with pytest.raises(LengthMismatchError, match="mu"):
            validate_prediction_set(p)

    def test_non_finite_value_names_field_and_index(self):
        p = make_pset([1.0, np.nan], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(NonFiniteValueError, match="y_true at index 1"):
            validate_prediction_set(p)

    def test_duplicate_id(self):
        p = make_pset([1.0, 2.0], [1.0, 2.0], [0.1, 0.1], ids=("a", "a"))
        with pytest.raises(DuplicateIdError, match="'a'"):
            validate_prediction_set(p)

    def test_zero_sigma_is_legal(self):
        p = make_pset([1.0, 2.0], [1.0, 2.0], [0.0, 0.1])
        assert validate_prediction_set(p) is p


class TestWithSigma:
    def test_shares_the_other_columns_and_leaves_the_parent(self):
        p = make_pset([1.0, 2.0, 3.0], [1.1, 2.1, 2.9], [0.1, 0.2, 0.3], groups=("a", "b", "a"))
        q = p.with_sigma([0.5, 1.0, 1.5])
        assert q.ids is p.ids and q.groups is p.groups
        assert np.shares_memory(q.y_true, p.y_true) and np.shares_memory(q.mu, p.mu)
        np.testing.assert_array_equal(q.sigma, [0.5, 1.0, 1.5])
        np.testing.assert_array_equal(p.sigma, [0.1, 0.2, 0.3])
        for a in (q.y_true, q.mu, q.sigma):
            assert a.dtype == np.float64 and not a.flags.writeable

    def test_sigma_is_a_frozen_copy_of_the_argument(self):
        p = make_pset([1.0, 2.0], [1.0, 2.0], [0.1, 0.1])
        sigma = np.array([[0.3], [0.4]])
        q = p.with_sigma(sigma)
        sigma[0, 0] = 9.0
        assert q.sigma.shape == (2,) and q.sigma[0] == 0.3
        with pytest.raises(ValueError):
            q.sigma[0] = 1.0


class TestRowMessages:
    """Datasets and prediction sets name the first bad row word for word."""

    @pytest.mark.parametrize("features, targets, ids, error, message", [
        ([[1.0, 2.0], [3.0, np.nan], [np.inf, 0.0]], [0.0, 0.0, 0.0], "abc",
         NonFiniteValueError, "non-finite feature at row 1 (id='b')"),
        ([[1.0], [2.0], [3.0]], [0.0, 0.0, -np.inf], "abc",
         NonFiniteValueError, "non-finite target at row 2 (id='c')"),
        ([[1.0], [2.0], [3.0], [4.0]], [0.0] * 4, "abba",
         DuplicateIdError, "duplicate id 'b' at row 2"),
    ])
    def test_dataset(self, features, targets, ids, error, message):
        with pytest.raises(error) as info:
            LabeledDataset(ids=tuple(ids), features=features, targets=targets)
        assert str(info.value) == message

    @pytest.mark.parametrize("mu, ids, error, message", [
        ([0.0, 0.0, np.nan, np.inf], "abcd", NonFiniteValueError,
         "non-finite mu at index 2 (id='c')"),
        ([0.0] * 4, "abcb", DuplicateIdError, "duplicate id 'b' at index 3"),
    ])
    def test_prediction_set(self, mu, ids, error, message):
        p = make_pset([0.0] * 4, mu, [1.0] * 4, ids=tuple(ids))
        with pytest.raises(error) as info:
            validate_prediction_set(p)
        assert str(info.value) == message


class TestLabeledDataset:
    def test_rejects_non_finite_features(self):
        with pytest.raises(NonFiniteValueError):
            LabeledDataset(ids=("a",), features=[[np.inf]], targets=[0.0])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateIdError):
            LabeledDataset(ids=("a", "a"), features=[[1.0], [2.0]], targets=[0.0, 1.0])

    def test_zero_rows_keep_their_dim(self):
        ds = LabeledDataset(ids=(), features=np.empty((0, 3)), targets=[], groups=())
        assert (ds.n, ds.dim, ds.features.shape, ds.groups) == (0, 3, (0, 3), ())

    @pytest.mark.parametrize("step", [
        lambda m, ds: train(m, ds, TrainConfig(epochs=1, batch_size=4, learning_rate=0.1)),
        lambda m, ds: loss_and_gradient(m, ds),
    ], ids=["train", "loss_and_gradient"])
    def test_training_refuses_zero_rows(self, step):
        ds = LabeledDataset(ids=(), features=np.empty((0, 2)), targets=[])
        m = MlpModel.initialize(MlpConfig((2, 4, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not numpy's "Mean of empty slice"
            with pytest.raises(DomainError, match="row"):
                step(m, ds)

    def test_one_dimensional_features_are_one_row(self):
        ds = LabeledDataset(ids=("a",), features=[1.0, 2.0, 3.0], targets=[0.0])
        assert ds.features.shape == (1, 3) and ds.dim == 3

    def test_arrays_are_read_only(self):
        ds = small_dataset(4)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0


def small_predictions(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return make_pset(rng.normal(size=n), rng.normal(size=n), rng.uniform(size=n),
                     ids=[f"r{i}" for i in range(n)])


def three_rows(record, groups=("g0", "g1", "g2")):
    """Rows a, b, c with targets (y_true for a prediction set) 10, 20, 30."""
    if record is LabeledDataset:
        return LabeledDataset(ids=("a", "b", "c"), features=[[1.0], [2.0], [3.0]],
                              targets=[10.0, 20.0, 30.0], groups=groups)
    return make_pset([10.0, 20.0, 30.0], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3],
                     groups=groups, ids=("a", "b", "c"))


def array_columns(record) -> dict[str, np.ndarray]:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if isinstance(getattr(record, f.name), np.ndarray)}


RECORDS = pytest.mark.parametrize("record", [LabeledDataset, PredictionSet],
                                  ids=["dataset", "prediction_set"])


class TestSubset:
    """Both row records share one subset: ids, groups and every array column
    follow the rows."""

    @RECORDS
    def test_subset_preserves_order(self, record):
        full = small_dataset(5) if record is LabeledDataset else small_predictions(5)
        sub = full.subset([3, 1])
        assert sub.ids == ("r3", "r1") and sub.n == 2 and type(sub) is record
        for name, column in array_columns(full).items():
            np.testing.assert_array_equal(getattr(sub, name), column[[3, 1]])

    @RECORDS
    def test_subset_takes_targets_and_groups_with_the_rows(self, record):
        full = three_rows(record)
        sub = full.subset(np.array([2, 0]))
        assert sub.ids == ("c", "a") and sub.groups == ("g2", "g0")
        targets = sub.targets if record is LabeledDataset else sub.y_true
        np.testing.assert_array_equal(targets, [30.0, 10.0])
        for name, column in array_columns(full).items():
            np.testing.assert_array_equal(getattr(sub, name), column[[2, 0]])

    @RECORDS
    def test_subset_without_groups_has_none(self, record):
        assert three_rows(record, groups=None).subset([1]).groups is None

    def test_repeated_index_rechecks_a_dataset_only(self):
        with pytest.raises(DuplicateIdError, match="duplicate id 'b' at row 1"):
            three_rows(LabeledDataset).subset([1, 1])
        assert three_rows(PredictionSet).subset([1, 1]).ids == ("b", "b")


class TestSplitKFolds:
    def test_exact_division(self):
        ds = small_dataset(100)
        folds = split_k_folds(ds, 5, RngSeed(1))
        assert [f.n for f in folds] == [20] * 5
        all_ids = [i for f in folds for i in f.ids]
        assert len(set(all_ids)) == 100

    def test_uneven_sizes_differ_by_at_most_one(self):
        # counting oracle: 7 rows over 3 folds can only be sizes {3, 2, 2}
        ds = small_dataset(7)
        folds = split_k_folds(ds, 3, RngSeed(1))
        assert sorted(f.n for f in folds) == [2, 2, 3]
        # the first n % k folds take the extra row, each a consecutive slice
        # of the seeded permutation, in its order
        assert [f.n for f in folds] == [3, 2, 2]
        perm = RngSeed(1).generator().permutation(7)
        assert [f.ids for f in folds] == [tuple(f"r{i}" for i in rows)
                                          for rows in (perm[:3], perm[3:5], perm[5:])]

    def test_disjoint_and_covering(self):
        ds = small_dataset(53)
        for k in (2, 5, 10, 53):
            folds = split_k_folds(ds, k, RngSeed(3))
            ids = sorted(i for f in folds for i in f.ids)
            assert ids == sorted(ds.ids)

    def test_same_seed_same_folds(self):
        ds = small_dataset(40)
        a = split_k_folds(ds, 4, RngSeed(9))
        b = split_k_folds(ds, 4, RngSeed(9))
        assert [f.ids for f in a] == [f.ids for f in b]

    def test_different_seed_different_assignment(self):
        ds = small_dataset(40)
        a = split_k_folds(ds, 4, RngSeed(9))
        b = split_k_folds(ds, 4, RngSeed(10))
        assert [f.ids for f in a] != [f.ids for f in b]

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            split_k_folds(small_dataset(4), 5, RngSeed(0))

    def test_k_below_two(self):
        with pytest.raises(DomainError):
            split_k_folds(small_dataset(4), 1, RngSeed(0))


class TestRngSeed:
    def test_same_pair_same_stream(self):
        a = RngSeed(5, 7).generator().random(10)
        b = RngSeed(5, 7).generator().random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = RngSeed(5, 0).generator().random(10)
        b = RngSeed(5, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_path_sensitive(self):
        s = RngSeed(1, 2)
        assert s.derive(3, 4) == s.derive(3, 4)
        assert s.derive(3, 4) != s.derive(4, 3)
        assert s.derive(3) != s.derive(3, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            RngSeed(-1)
        with pytest.raises(DomainError):
            RngSeed(2**64)

    @pytest.mark.parametrize("args, name", [((True,), "seed"), ((5, False), "stream_id"),
                                            ((np.True_,), "seed")])
    def test_rejects_bools(self, args, name):
        with pytest.raises(DomainError, match=f"{name} must be an unsigned 64-bit integer"):
            RngSeed(*args)

    def test_counter_uniform_is_order_independent(self):
        s = RngSeed(11, 13)
        grid = counter_uniform(s, np.arange(6)[:, None], np.arange(4)[None, :])
        # the same coordinates, evaluated alone, give the same values
        for i in (0, 3, 5):
            for j in (0, 2):
                assert counter_uniform(s, i, j) == grid[i, j]
        assert grid.min() >= 0.0 and grid.max() < 1.0

    def test_counter_uniform_looks_uniform(self):
        u = counter_uniform(RngSeed(3), np.arange(20000), 0)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.005


def _oracle():
    return calibrated_prediction_set(generate_synthetic(40, 2, RngSeed(1)))


def _quadratic(x):
    return (x - 1.0) ** 2


# every count argument of the library and CLI: the name its messages begin
# with, the least value it takes, and a call that passes it a value v
COUNT_ARGUMENTS = {
    "calibration_curve.grid_size": ("grid_size", 1, lambda v: calibration_curve(_oracle(), v)),
    "adversarial.trials": (
        "trials", 1, lambda v: adversarial_group_calibration(_oracle(), [0.5], trials=v)),
    "adversarial.subgroups": (
        "subgroups", 1, lambda v: adversarial_group_calibration(_oracle(), [0.5], subgroups=v)),
    "evaluate.--violin-points": (
        "--violin-points", 1, lambda v: cli.cmd_evaluate(argparse.Namespace(violin_points=v), [])),
    "split_k_folds.k": ("k", 2, lambda v: split_k_folds(small_dataset(), v, RngSeed(0))),
    "generate_synthetic.n": ("n", 0, lambda v: generate_synthetic(v, 2, RngSeed(0))),
    "generate_synthetic.dim": ("dim", 1, lambda v: generate_synthetic(5, v, RngSeed(0))),
    "generate_synthetic.n_groups": (
        "n_groups", 0, lambda v: generate_synthetic(5, 2, RngSeed(0), n_groups=v)),
    "MlpConfig.layer_widths": ("layer width", 1, lambda v: MlpConfig((2, v, 1))),
    "TrainConfig.epochs": (
        "epochs", 0, lambda v: TrainConfig(epochs=v, batch_size=8, learning_rate=0.01)),
    "TrainConfig.batch_size": (
        "batch_size", 1, lambda v: TrainConfig(epochs=1, batch_size=v, learning_rate=0.01)),
    "EnsembleSpec.k": ("k", 2, lambda v: EnsembleSpec(
        k=v, mlp=MlpConfig((2, 4, 1)),
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.01))),
    "DropoutSpec.samples": ("samples", 2, lambda v: DropoutSpec(v)),
    "brent_minimize.max_iter": ("max_iter", 1, lambda v: brent_minimize(_quadratic, 0.0, 3.0,
                                                                        max_iter=v)),
}


class TestCheckCount:
    def test_numpy_integer_becomes_a_python_int(self):
        out = check_count(np.int64(3), "x")
        assert out == 3 and type(out) is int

    @pytest.mark.parametrize("value, needle", [
        (True, "x must be an integer, got True"),
        (np.True_, f"x must be an integer, got {np.True_!r}"),
        (3.0, "x must be an integer, got 3.0"),
        (-1, "x must be >= 0, got -1"),
    ])
    def test_refusals_name_the_argument(self, value, needle):
        with pytest.raises(DomainError, match=re.escape(needle)):
            check_count(value, "x")

    @pytest.mark.parametrize("bad", ["float", "bool", "str", "below_least"])
    @pytest.mark.parametrize("site", COUNT_ARGUMENTS)
    def test_every_count_argument_refuses_by_name(self, site, bad):
        # one DomainError whose message leads with the argument, before any work
        name, least, call = COUNT_ARGUMENTS[site]
        value = {"float": 2.5, "bool": True, "str": "3", "below_least": least - 1}[bad]
        with pytest.raises(DomainError, match=f"^{re.escape(name)} must be "):
            call(value)
