"""Data model invariants, validation errors, fold splitting, RNG contract,
and the one check behind every count argument."""

import argparse
import copy
import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqregress import cli, core
from uqregress.calibration import adversarial_group_calibration, calibration_curve
from uqregress.core import (
    TEXT_WIDTH_LIMIT,
    DatasetFile,
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
from uqregress.metrics import distribution_summary
from uqregress.neural import MlpConfig, MlpModel, TrainConfig, loss_and_gradient, train
from uqregress.numerics import brent_minimize
from uqregress.scoring import interval_score
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

    def test_groups_length_mismatch(self):
        p = make_pset([1.0, 2.0], [1.0, 2.0], [0.1, 0.1], groups=("g",))
        with pytest.raises(LengthMismatchError, match="^groups has length 1, expected 2$"):
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

    @pytest.mark.parametrize("columns, error, message", [
        ({"features": [[1.0], [2.0]]}, LengthMismatchError,
         "ids(3), features(2), targets(3) disagree"),
        ({"targets": [0.0]}, LengthMismatchError, "ids(3), features(3), targets(1) disagree"),
        ({"groups": ("g", "h")}, LengthMismatchError, "groups(2) != ids(3)"),
        ({"features": np.empty((3, 0))}, DomainError, "feature dimension must be >= 1"),
        ({"ids": ("a", "b\ud800", "c")}, DomainError, "id 'b\\ud800' is not UTF-8 text"),
    ], ids=["features", "targets", "groups", "zero-width", "lone-surrogate"])
    def test_refuses_columns_that_do_not_make_a_table(self, columns, error, message):
        table = {"ids": ("a", "b", "c"), "features": [[1.0], [2.0], [3.0]], "targets": [0.0] * 3}
        with pytest.raises(error) as info:
            LabeledDataset(**{**table, **columns})
        assert str(info.value) == message

    def test_zero_rows_keep_their_dim(self):
        ds = LabeledDataset(ids=(), features=np.empty((0, 3)), targets=[], groups=())
        assert (ds.n, ds.dim, ds.features.shape, ds.groups.tolist()) == (0, 3, (0, 3), [])

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
        assert sub.ids.tolist() == [b"r3", b"r1"] and sub.n == 2 and type(sub) is record
        for name, column in array_columns(full).items():
            np.testing.assert_array_equal(getattr(sub, name), column[[3, 1]])

    @RECORDS
    def test_subset_takes_targets_and_groups_with_the_rows(self, record):
        full = three_rows(record)
        sub = full.subset(np.array([2, 0]))
        assert sub.ids.tolist() == [b"c", b"a"] and sub.groups.tolist() == [b"g2", b"g0"]
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
        assert three_rows(PredictionSet).subset([1, 1]).ids.tolist() == [b"b", b"b"]


# every frozen record with an ndarray field, and a small one of each
IDENTITY_RECORDS = {
    "dataset": lambda: three_rows(LabeledDataset),
    "prediction_set": lambda: three_rows(PredictionSet),
    "calibration_curve": lambda: calibration_curve(three_rows(PredictionSet)),
    "adversarial_curve": lambda: adversarial_group_calibration(
        three_rows(PredictionSet), [1.0], trials=2, subgroups=1),
    "interval_score": lambda: interval_score(three_rows(PredictionSet)),
    "distribution_summary": lambda: distribution_summary([1.0, 2.0, 4.0], [0.0, 2.0]),
    "dataset_file": lambda: DatasetFile(three_rows(LabeledDataset), np.ones(3)),
}


@pytest.mark.parametrize("make", IDENTITY_RECORDS.values(), ids=IDENTITY_RECORDS.keys())
def test_records_compare_and_hash_by_identity(make):
    a = make()
    twin = copy.copy(a)  # equal fields, another record
    assert a == a and not a != a
    assert a != twin and not a == twin
    assert hash(a) == hash(a) and {a: 1}[a] == 1 and len({a, twin}) == 2


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
        assert [f.ids.tolist() for f in folds] == [[f"r{i}".encode() for i in rows]
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
        assert [f.ids.tolist() for f in a] == [f.ids.tolist() for f in b]

    def test_different_seed_different_assignment(self):
        ds = small_dataset(40)
        a = split_k_folds(ds, 4, RngSeed(9))
        b = split_k_folds(ds, 4, RngSeed(10))
        assert [f.ids.tolist() for f in a] != [f.ids.tolist() for f in b]

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
        assert grid.dtype == np.uint64

    def test_counter_uniform_looks_uniform(self):
        u = counter_uniform(RngSeed(3), np.arange(20000), 0) / 2.0**64
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


def _zeros_set(ids, groups=None) -> PredictionSet:
    n = len(ids)
    return PredictionSet(ids, np.zeros(n), np.zeros(n), np.ones(n), groups=groups)


def _first_repeat(ids, unit="index"):
    """The duplicate-id message an ordered set scan gives, or None."""
    seen = set()
    for i, rid in enumerate(ids):
        if rid in seen:
            return f"duplicate id {rid!r} at {unit} {i}"
        seen.add(rid)
    return None


# any text but NUL and lone surrogates; 16 characters are at most 64 UTF-8 bytes
id_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                  max_size=16)


class TestTextColumns:
    """Ids and group tags are read-only columns of UTF-8 bytes, checked for
    uniqueness by hash and sort."""

    def test_sequences_are_encoded_once_and_columns_shared(self):
        p = _zeros_set([7, "é1", "x"], groups=("g", "g", "h"))
        assert p.ids.dtype == np.dtype("S3") and p.ids.tolist() == [b"7", "é1".encode(), b"x"]
        assert not p.ids.flags.writeable and not p.groups.flags.writeable
        q = PredictionSet(p.ids, p.y_true, p.mu, p.sigma, p.groups)
        assert q.ids is p.ids and q.groups is p.groups
        writable = np.array([b"a", b"b"])
        r = _zeros_set(writable)
        assert r.ids is not writable and not r.ids.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(st.lists(id_text, unique=True, max_size=40), st.data())
    def test_hash_sort_check_agrees_with_a_set(self, unique, data):
        ids = list(unique)
        if ids and data.draw(st.booleans()):  # repeat an earlier id somewhere after it
            src = data.draw(st.integers(0, len(ids) - 1))
            ids.insert(data.draw(st.integers(src + 1, len(ids))), ids[src])
        p = _zeros_set(ids)
        assert p.ids.dtype.kind == "S"
        want = _first_repeat(ids)
        if want is None:
            assert validate_prediction_set(p) is p
        else:
            with pytest.raises(DuplicateIdError) as info:
                validate_prediction_set(p)
            assert str(info.value) == want

    def test_colliding_hashes_compare_the_ids_exactly(self, monkeypatch):
        monkeypatch.setattr(core, "_id_hashes", lambda ids: np.zeros(ids.size, dtype=np.uint64))
        distinct = ["a", "bb", "c", "a" * 20, "é"]
        assert validate_prediction_set(_zeros_set(distinct)).n == 5
        repeated = distinct + ["c", "bb"]
        with pytest.raises(DuplicateIdError) as info:
            validate_prediction_set(_zeros_set(repeated))
        assert str(info.value) == _first_repeat(repeated) == "duplicate id 'c' at index 5"
        with pytest.raises(DuplicateIdError, match="^duplicate id 'bb' at row 2$"):
            LabeledDataset(ids=("a", "bb", "bb"), features=np.zeros((3, 1)), targets=np.zeros(3))

    def test_a_long_id_holds_the_column_as_bytes_objects(self):
        n = 2000
        ids = [f"r{i}" for i in range(n)]
        ids[7] = "x" * 100_000
        p = _zeros_set(ids)
        assert p.ids.dtype == object and not p.ids.flags.writeable
        assert p.ids.nbytes == 8 * n < n * 100_000 // 1000  # an S column would take 200 MB
        assert p.ids[7] == ids[7].encode() and (p.ids == b"r8").sum() == 1
        assert validate_prediction_set(p) is p
        with pytest.raises(DuplicateIdError, match="^duplicate id 'r3' at index 2000$"):
            validate_prediction_set(_zeros_set(ids + ["r3"]))
        sub = p.subset([7, 9])
        assert sub.ids.tolist() == [ids[7].encode(), b"r9"]

    def test_width_limit_is_inclusive(self):
        assert _zeros_set(["a" * TEXT_WIDTH_LIMIT]).ids.dtype.kind == "S"
        assert _zeros_set(["a" * (TEXT_WIDTH_LIMIT + 1)]).ids.dtype == object
        assert _zeros_set(["é" * (TEXT_WIDTH_LIMIT // 2 + 1)]).ids.dtype == object  # bytes count

    @pytest.mark.parametrize("make", [
        lambda: PredictionSet(ids=("a\x00",), y_true=[0.0], mu=[0.0], sigma=[1.0]),
        lambda: _zeros_set(["a", "b"], groups=["g", "\x00g"]),
        lambda: _zeros_set(np.array([b"a\x00b", b"c"])),
        lambda: LabeledDataset(ids=("x\x00y",), features=[[1.0]], targets=[0.0]),
    ], ids=["id", "group", "bytes-array", "dataset"])
    def test_nul_is_refused(self, make):
        # an S array drops trailing NULs, so "a\x00" would equal "a"
        with pytest.raises(DomainError, match="holds a NUL character"):
            make()

    def test_bytes_items_round_trip_as_text(self):
        p = _zeros_set(["r000000", "é1", "a" * (TEXT_WIDTH_LIMIT + 1)], groups=["g", "h", "é"])
        for ids, groups in [(list(p.ids), list(p.groups)),
                            (p.ids.tolist(), p.groups.tolist()),
                            (tuple(np.array(p.ids.tolist(), dtype="S")), None)]:
            q = PredictionSet(ids, p.y_true, p.mu, p.sigma, groups)
            assert q.ids.tolist() == p.ids.tolist()  # not b"b'r000000'"
            assert groups is None or q.groups.tolist() == p.groups.tolist()

    @pytest.mark.parametrize("ids", [
        [b"a", b"\xff"],  # a sequence of bytes items
        np.array([b"a", b"\xc3"]),  # an S array, cut inside a 2-byte character
        np.array([b"a", b"\xff" * (TEXT_WIDTH_LIMIT + 1)], dtype=object),
    ], ids=["sequence", "bytes-array", "object-array"])
    def test_bytes_that_are_not_utf8_are_refused(self, ids):
        with pytest.raises(DomainError, match="^id b'.*' is not UTF-8 text$"):
            _zeros_set(ids)

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        owner = np.array([b"a", b"b"])
        view = owner[:]
        view.flags.writeable = False
        p = _zeros_set(view)
        owner[1] = b"a"  # after the ids were taken, they stay unique
        assert p.ids.tolist() == [b"a", b"b"] and validate_prediction_set(p) is p
        frozen = p.ids[:]  # a view of a read-only array is shared
        assert _zeros_set(frozen).ids is frozen
