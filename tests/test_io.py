"""CSV/JSON round trips, parse errors with line numbers, checkpoints, manifests."""

import tracemalloc

import numpy as np
import pytest

from uqregress import io
from uqregress.core import PredictionSet, RngSeed
from uqregress.datagen import generate_synthetic
from uqregress.errors import FileParseError, LengthMismatchError, ReportSchemaError
from uqregress.neural import MlpConfig, MlpModel

from conftest import gaussian_null, make_pset


class TestDatasetCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        d = generate_synthetic(50, 3, RngSeed(1), n_groups=2)
        path = tmp_path / "data.csv"
        ds = d.dataset
        io.write_dataset_csv(path, ids=ds.ids, features=ds.features,
                             targets=ds.targets, groups=ds.groups, true_sigma=d.true_sigma)
        back = io.read_dataset_csv(path)
        np.testing.assert_array_equal(back.dataset.features, ds.features)
        np.testing.assert_array_equal(back.dataset.targets, ds.targets)
        np.testing.assert_array_equal(back.true_sigma, d.true_sigma)
        assert back.dataset.ids == ds.ids
        assert back.dataset.groups == ds.groups

    @pytest.mark.parametrize("groups, true_sigma, header", [
        (None, None, "id,x0,x1,y\n"),
        ((), np.empty(0), "id,x0,x1,y,group,true_sigma\n"),
    ], ids=["bare", "group_and_sigma"])
    def test_header_only_round_trip(self, tmp_path, groups, true_sigma, header):
        path = tmp_path / "empty.csv"
        io.write_dataset_csv(path, (), np.empty((0, 2)), np.empty(0), groups, true_sigma)
        assert path.read_text() == header
        back = io.read_dataset_csv(path)
        assert (back.dataset.n, back.dataset.dim, back.dataset.features.shape) == (0, 2, (0, 2))
        assert back.dataset.groups == groups
        if true_sigma is None:
            assert back.true_sigma is None
        else:
            assert back.true_sigma.shape == (0,)

    def test_header_width_is_the_feature_width(self, tmp_path):
        path = tmp_path / "d.csv"
        io.write_dataset_csv(path, ("a", "b"), np.ones((2, 3)), np.zeros(2))
        assert path.read_text() == "id,x0,x1,x2,y\na,1.0,1.0,1.0,0.0\nb,1.0,1.0,1.0,0.0\n"

    def test_header_narrower_or_wider_than_the_columns_is_refused(self, tmp_path):
        path = tmp_path / "t.csv"
        for header in (["a", "b", "c"], ["a"]):
            with pytest.raises(LengthMismatchError, match=f"{len(header)} header names for 2 col"):
                io.write_columns_csv(path, header, [np.ones(2), np.ones(2)])
        assert not path.exists()

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,y\nr0,1.0,2.0\nr1,oops,3.0\n")
        with pytest.raises(FileParseError, match="bad.csv:3"):
            io.read_dataset_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(FileParseError, match=":1"):
            io.read_dataset_csv(path)


class TestPredictionsCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        p = gaussian_null(100, seed=2)
        path = tmp_path / "pred.csv"
        io.write_predictions_csv(path, p)
        back = io.read_predictions_csv(path)
        np.testing.assert_array_equal(back.y_true, p.y_true)
        np.testing.assert_array_equal(back.mu, p.mu)
        np.testing.assert_array_equal(back.sigma, p.sigma)
        assert back.ids == p.ids

    def test_group_column_preserved(self, tmp_path):
        p = make_pset([1.0, 2.0], [1.0, 2.0], [0.1, 0.2], groups=("a", "b"))
        path = tmp_path / "pred.csv"
        io.write_predictions_csv(path, p)
        assert io.read_predictions_csv(path).groups == ("a", "b")

    @pytest.mark.parametrize("groups, header", [
        (None, "id,y_true,y_pred,sigma\n"),
        ((), "id,y_true,y_pred,sigma,group\n"),
    ], ids=["bare", "group"])
    def test_zero_rows_write_header_only(self, tmp_path, groups, header):
        path = tmp_path / "pred.csv"
        io.write_predictions_csv(path, make_pset([], [], [], groups=groups, ids=()))
        assert path.read_text() == header
        back = io.read_predictions_csv(path)
        assert (back.n, back.groups, back.sigma.shape) == (0, groups, (0,))

    def test_field_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("id,y_true,y_pred,sigma\nr0,1.0,1.0\n")
        with pytest.raises(FileParseError, match="pred.csv:2"):
            io.read_predictions_csv(path)

    def test_read_peak_is_about_file_plus_set(self, tmp_path):
        """The column parse holds one chunk's temporaries beside the bytes and the set."""
        n = 200_000
        assert n > 3 * io.CHUNK_ROWS
        path = tmp_path / "pred.csv"
        io.write_predictions_csv(path, gaussian_null(n, seed=3))
        tracemalloc.start()
        try:
            back = io.read_predictions_csv(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.n == n
        assert peak < 1.3 * (path.stat().st_size + retained)


def test_numeric_looking_ids_and_group_tags_read_back_as_text(tmp_path):
    ids, groups = ("7", "8"), ("1", "2")
    data, pred = tmp_path / "data.csv", tmp_path / "pred.csv"
    io.write_dataset_csv(data, ids, np.ones((2, 1)), np.zeros(2), groups, np.ones(2))
    io.write_predictions_csv(pred, make_pset([1.0, 2.0], [1.0, 2.0], [0.1, 0.2], groups, ids))
    ds, p = io.read_dataset_csv(data).dataset, io.read_predictions_csv(pred)
    assert (ds.ids, ds.groups, p.ids, p.groups) == (ids, groups, ids, groups)


class TestCheckpoints:
    def test_model_round_trip_bit_exact(self, tmp_path):
        m = MlpModel.initialize(MlpConfig((3, 8, 4), activation="softplus",
                                          dropout_rate=0.05, seed=RngSeed(5, 6)))
        path = tmp_path / "model.json"
        io.save_model(path, m)
        back = io.load_checkpoint(path)
        assert back.config == m.config
        for a, b in zip(back.weights, m.weights):
            np.testing.assert_array_equal(a, b)

    def test_ensemble_round_trip(self, tmp_path):
        members = [MlpModel.initialize(MlpConfig((2, 4, 1), seed=RngSeed(i))) for i in range(3)]
        path = tmp_path / "ens.json"
        io.save_ensemble(path, members, "one_fold_each")
        back = io.load_checkpoint(path)
        assert isinstance(back, list) and len(back) == 3
        np.testing.assert_array_equal(back[2].weights[0], members[2].weights[0])

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ReportSchemaError):
            io.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        m = MlpModel.initialize(MlpConfig((2, 4, 1), seed=RngSeed(0)))
        d = io._model_dict(m)
        d["layer_widths"] = [2, 5, 1]
        path = tmp_path / "model.json"
        io.write_json(path, d)
        with pytest.raises(FileParseError):
            io.load_checkpoint(path)


class TestManifests:
    def test_write_and_read(self, tmp_path):
        out = tmp_path / "result.json"
        out.write_text("{}\n")
        io.write_manifest(out, "evaluate", {"pred": "p.csv"}, ["p.csv"], [str(out)], started=0.0)
        m = io.read_manifest(io.manifest_path(out))
        assert m["command"] == "evaluate"
        assert m["config"] == {"pred": "p.csv"}
        assert m["artifact_version"].startswith("uqregress/")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "nope"}\n')
        with pytest.raises(ReportSchemaError):
            io.read_manifest(path)

    @pytest.mark.parametrize("body", ["[1, 2]\n", "7\n", "null\n"])
    def test_non_object_rejected_naming_the_file(self, tmp_path, body):
        path = tmp_path / "m.json"
        path.write_text(body)
        with pytest.raises(ReportSchemaError, match=f"{path}: manifest must be a JSON object"):
            io.read_manifest(path)


class TestFloatFormat:
    @staticmethod
    def _round_trip(path, values):
        """Write ``values`` as every float column of a prediction CSV and
        check that reading it back gives the same float64 bits."""
        v = np.array(values, dtype=np.float64)
        columns = (v, -v, np.abs(v))
        io.write_predictions_csv(path, PredictionSet(
            ids=tuple(f"r{i}" for i in range(v.size)), y_true=columns[0], mu=columns[1],
            sigma=columns[2]))
        back = io.read_predictions_csv(path)
        for read, written in zip((back.y_true, back.mu, back.sigma), columns):
            assert read.tobytes() == written.tobytes()

    def test_shortest_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        self._round_trip(path, (0.1, 1 / 3, 1e-17, 123456.789, -2.5e300))
        assert path.read_text().splitlines()[1] == "r0,0.1,-0.1,0.1"

    def test_fifteen_plus_significant_digits(self, tmp_path):
        self._round_trip(tmp_path / "p.csv", (0.12345678901234567,))
