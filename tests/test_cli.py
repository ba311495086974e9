"""End-to-end CLI behavior: exit codes, file contracts, manifests, determinism."""

import csv
import json
import re

import numpy as np
import pytest

from uqregress import io
from uqregress.cli import build_parser, main
from uqregress.report import report_from_dict

FAST_TRAIN = ["--hidden", "8", "--epochs", "4", "--batch-size", "32", "--learning-rate", "0.01"]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small generated dataset plus a trained model per method."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("generate", "--out", data, "--n-train", 300, "--n-test", 120,
               "--dim", 2, "--seed", 3) == 0
    models = {}
    for method in ("ensemble", "dropout", "evidential"):
        out = root / f"{method}.model.json"
        assert run("train", "--method", method, "--train", data / "train.csv",
                   "--out", out, "--seed", 4, *FAST_TRAIN) == 0
        models[method] = out
    preds = {}
    for method, extra in (("ensemble", []), ("dropout", ["--samples", "25"]), ("evidential", [])):
        out = root / f"{method}.pred.csv"
        assert run("predict", "--method", method, "--model", models[method],
                   "--test", data / "test.csv", "--out", out, "--seed", 5, *extra) == 0
        preds[method] = out
    return {"root": root, "data": data, "models": models, "preds": preds}


COMMANDS = ("generate", "train", "predict", "evaluate", "adversarial", "recalibrate", "screen")


@pytest.mark.parametrize("command", COMMANDS)
def test_help_states_each_default_at_most_once(command):
    _, sub = build_parser()
    options = sub.choices[command].format_help().split("options:", 1)[1]
    # a line indented by two spaces and a dash opens the next flag's entry
    entries = [" ".join(e.split()) for e in re.split(r"\n(?=  -)", options)[1:]]
    assert len(entries) == len(sub.choices[command]._actions)
    for entry in entries:
        assert entry.count("default") <= 1, entry
        assert "None" not in entry, entry


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert run("generate", "--out", tmp_path / sub, "--n-train", 40,
                       "--n-test", 10, "--dim", 2, "--seed", 7) == 0
        assert (tmp_path / "a/train.csv").read_bytes() == (tmp_path / "b/train.csv").read_bytes()
        assert (tmp_path / "a/test.csv").read_bytes() == (tmp_path / "b/test.csv").read_bytes()

    def test_empty_dataset_writes_header_only(self, tmp_path):
        assert run("generate", "--out", tmp_path, "--n-train", 0, "--n-test", 0,
                   "--dim", 3, "--seed", 1) == 0
        assert (tmp_path / "train.csv").read_text() == "id,x0,x1,x2,y,true_sigma\n"

    def test_manifest_written_per_output(self, tmp_path):
        assert run("generate", "--out", tmp_path, "--n-train", 5, "--n-test", 5,
                   "--dim", 1, "--seed", 1) == 0
        for name in ("train.csv", "test.csv"):
            m = io.read_manifest(tmp_path / f"{name}.manifest.json")
            assert m["command"] == "generate"
            assert m["config"]["n_train"] == 5


class TestPredict:
    def test_prediction_csv_contract(self, workspace):
        with open(workspace["preds"]["evidential"]) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["id", "y_true", "y_pred", "sigma"]
        assert len(rows) == 121
        sigma = np.array([float(r[3]) for r in rows[1:]])
        assert np.all(sigma >= 0.0)

    @pytest.mark.parametrize("groups, header", [
        (0, "id,y_true,y_pred,sigma\n"),
        (3, "id,y_true,y_pred,sigma,group\n"),
    ], ids=["no_groups", "groups"])
    @pytest.mark.parametrize("method", ["ensemble", "dropout", "evidential"])
    def test_empty_test_file_writes_a_header_only_prediction_csv(self, workspace, tmp_path,
                                                                method, groups, header):
        assert run("generate", "--out", tmp_path / "data", "--n-train", 0, "--n-test", 0,
                   "--dim", 2, "--groups", groups) == 0
        out = tmp_path / "pred.csv"
        assert run("predict", "--method", method, "--model", workspace["models"][method],
                   "--test", tmp_path / "data/test.csv", "--out", out, "--samples", 5) == 0
        assert out.read_text() == header
        assert io.read_manifest(io.manifest_path(out))["command"] == "predict"

    def test_empty_test_file_of_another_width_fails(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,x0,y\n")  # the model takes two features
        assert run("predict", "--method", "evidential", "--model", workspace["models"]["evidential"],
                   "--test", empty, "--out", tmp_path / "pred.csv") == 1
        _one_error_line(capsys, "features shape (0, 1), expected (n, 2)")
        assert list(tmp_path.iterdir()) == [empty]

    @pytest.mark.parametrize("method, trained, message, header_only", [
        ("ensemble", "dropout", "is a single model; ensemble prediction needs an ensemble checkpoint",
         False),
        ("dropout", "ensemble", "is an ensemble; dropout prediction needs a single model", False),
        ("evidential", "ensemble", "is an ensemble; evidential prediction needs a single model", False),
        ("ensemble", "dropout", "is a single model; ensemble prediction needs an ensemble checkpoint",
         True),  # a test file without rows is checked against the checkpoint too
    ], ids=("ensemble", "dropout", "evidential", "ensemble-header-only"))
    def test_method_checkpoint_mismatch_fails(self, workspace, tmp_path, capsys,
                                              method, trained, message, header_only):
        model = workspace["models"][trained]
        test = workspace["data"] / "test.csv"
        if header_only:
            test = tmp_path / "empty.csv"
            test.write_text("id,x0,x1,y\n")
        code = run("predict", "--method", method, "--model", model,
                   "--test", test, "--out", tmp_path / "x.csv")
        assert code == 1
        assert capsys.readouterr().err == f"uqregress: error: {model} {message}\n"
        assert not (tmp_path / "x.csv").exists() and len(list(tmp_path.iterdir())) == header_only

    def test_ensemble_of_evidential_members_fails(self, workspace, tmp_path, capsys):
        member = json.loads(workspace["models"]["evidential"].read_text())
        model = tmp_path / "ensemble.json"
        model.write_text(json.dumps({"format": io.ENSEMBLE_FORMAT, "k": 2,
                                     "member_training": "one_fold_each", "members": [member] * 2}))
        assert run("predict", "--method", "ensemble", "--model", model,
                   "--test", workspace["data"] / "test.csv", "--out", tmp_path / "pred.csv") == 1
        _one_error_line(capsys, "an ensemble averages 1-unit regression heads")
        assert list(tmp_path.iterdir()) == [model]


class TestEvaluate:
    def test_report_parses_and_matches_in_memory_values(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", workspace["preds"]["ensemble"], "--out", out) == 0
        report = report_from_dict(json.loads(out.read_text()))
        p = io.read_predictions_csv(workspace["preds"]["ensemble"])
        from uqregress.report import evaluate as evaluate_in_memory

        expected, _ = evaluate_in_memory(p)
        assert report.accuracy.mae == pytest.approx(expected.accuracy.mae, abs=1e-9)
        assert report.miscalibration_area == pytest.approx(expected.miscalibration_area, abs=1e-9)
        assert report.interval_score_mean == pytest.approx(expected.interval_score_mean, abs=1e-9)

    def test_emits_curve_and_violin_tables(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", workspace["preds"]["dropout"], "--out", out) == 0
        with open(tmp_path / "report.curve.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["expected", "observed"]
        assert len(rows) == 100
        with open(tmp_path / "report.violin.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["value", "density"]
        assert len(rows) == 129

    def test_byte_identical_reruns(self, workspace, tmp_path):
        outs = []
        for sub in ("r1.json", "r2.json"):
            out = tmp_path / sub
            assert run("evaluate", "--pred", workspace["preds"]["evidential"], "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert run("evaluate", "--pred", tmp_path / "nope.csv", "--out", tmp_path / "r.json") == 1
        assert "error" in capsys.readouterr().err

    def test_overflowing_z_is_used_not_excluded(self, tmp_path):
        # sigma = 5e-324 is positive, so its row counts although y/sigma overflows
        pred = tmp_path / "p.csv"
        pred.write_text("id,y_true,y_pred,sigma\na,1,0,5e-324\nb,0.5,0.1,1\n"
                        "c,-0.3,0.2,0.5\nd,2,1,0.7\n")
        out = tmp_path / "r.json"
        assert run("evaluate", "--pred", pred, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["calibration_n_used"] == 4
        assert report["calibration_n_excluded_zero_sigma"] == 0

    def test_one_usable_row_is_a_partial_report(self, tmp_path):
        # one sigma > 0 row has no curve, like none: the report records it and goes on
        pred = tmp_path / "p.csv"
        pred.write_text("id,y_true,y_pred,sigma\na,1,0,0\nb,0.5,0.1,0.7\nc,-0.3,0.2,0\n")
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", pred, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["errors"] == ["AllSigmaZero"]
        assert report["miscalibration_area"] is None
        assert (report["calibration_n_used"], report["calibration_n_excluded_zero_sigma"]) == (0, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "p.csv", "report.json", "report.json.manifest.json", "report.violin.csv",
            "report.violin.csv.manifest.json"]

    @pytest.mark.parametrize("sigmas", ["0,0,0", "0,0.7,0.4"], ids=["no_curve", "curve"])
    def test_grid_size_zero_is_refused_whatever_the_data(self, tmp_path, capsys, sigmas):
        # the grid is checked before the rows: with or without a curve, exit 1
        pred = tmp_path / "p.csv"
        s = sigmas.split(",")
        pred.write_text(f"id,y_true,y_pred,sigma\na,1,0,{s[0]}\nb,0.5,0.1,{s[1]}\nc,-0.3,0.2,{s[2]}\n")
        assert run("evaluate", "--pred", pred, "--out", tmp_path / "r.json", "--grid-size", 0) == 1
        _one_error_line(capsys, "grid_size must be >= 1, got 0")
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]

    @pytest.mark.parametrize("sigmas", [("0.5", "0.5", "0.5"), ("1e308", "1.7e308", "1.5e308")],
                             ids=["equal", "overflowing_spread"])
    def test_sigmas_without_a_bandwidth_report_a_degenerate_sample(self, tmp_path, sigmas):
        # a std of zero, or one that overflows although each sigma is finite, leaves
        # the KDE no bandwidth: evaluate reports it and writes no violin table
        pred = tmp_path / "p.csv"
        pred.write_text("id,y_true,y_pred,sigma\na,1,0,{}\nb,0.5,0.1,{}\nc,-0.3,0.2,{}\n"
                        .format(*sigmas))
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", pred, "--out", out) == 0
        assert "DegenerateSample" in json.loads(out.read_text())["errors"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "p.csv", "report.curve.csv", "report.curve.csv.manifest.json", "report.json",
            "report.json.manifest.json"]


class TestAdversarial:
    def test_fraction_one_matches_evaluate_area(self, workspace, tmp_path):
        report_out = tmp_path / "report.json"
        adv_out = tmp_path / "adv.csv"
        pred = workspace["preds"]["ensemble"]
        assert run("evaluate", "--pred", pred, "--out", report_out) == 0
        assert run("adversarial", "--pred", pred, "--out", adv_out,
                   "--fractions", "0.5,1.0", "--trials", 5, "--subgroups", 3, "--seed", 9) == 0
        area = json.loads(report_out.read_text())["miscalibration_area"]
        with open(adv_out) as f:
            rows = {r["fraction"]: r for r in csv.DictReader(f)}
        assert float(rows["1.0"]["mean_worst_area"]) == pytest.approx(area, abs=1e-12)
        assert float(rows["1.0"]["std_error"]) == 0.0

    def test_deterministic(self, workspace, tmp_path):
        outs = []
        for sub in ("a.csv", "b.csv"):
            out = tmp_path / sub
            assert run("adversarial", "--pred", workspace["preds"]["ensemble"], "--out", out,
                       "--fractions", "0.2,0.5", "--trials", 4, "--subgroups", 2, "--seed", 10) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_fractions_is_one_error_line(self, workspace, tmp_path, capsys):
        out = tmp_path / "adv.csv"
        assert run("adversarial", "--pred", workspace["preds"]["ensemble"], "--out", out,
                   "--fractions", "0.5,abc") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("uqregress: error:")
        assert "--fractions" in err[0]
        assert list(tmp_path.iterdir()) == []


class TestRecalibrate:
    def test_scalar_recovers_known_multiplier(self, tmp_path):
        # predictions with sigma halved: fitted scalar must be ~2
        from conftest import gaussian_null

        p = gaussian_null(4000, seed=11, sigma_scale=0.5)
        pred = tmp_path / "pred.csv"
        io.write_predictions_csv(pred, p)
        out = tmp_path / "recal.json"
        assert run("recalibrate", "--pred", pred, "--out", out, "--fit-on", "self") == 0
        result = json.loads(out.read_text())
        assert 1.9 <= result["scalar"] <= 2.1
        assert result["area_after"] <= result["area_before"]

    def test_recalibrated_csv_differs_only_in_sigma(self, tmp_path):
        from conftest import gaussian_null

        p = gaussian_null(500, seed=12, sigma_scale=0.4)
        pred = tmp_path / "pred.csv"
        io.write_predictions_csv(pred, p)
        out = tmp_path / "recal.json"
        assert run("recalibrate", "--pred", pred, "--out", out, "--fit-on", "self") == 0
        scalar = json.loads(out.read_text())["scalar"]
        back = io.read_predictions_csv(tmp_path / "recal.recalibrated.csv")
        np.testing.assert_array_equal(back.y_true, p.y_true)
        np.testing.assert_array_equal(back.mu, p.mu)
        np.testing.assert_allclose(back.sigma, p.sigma * scalar, rtol=1e-15)

    def test_reapplying_scalar_reproduces_area_after(self, tmp_path):
        from conftest import gaussian_null

        p = gaussian_null(2000, seed=13, sigma_scale=0.3)
        pred = tmp_path / "pred.csv"
        io.write_predictions_csv(pred, p)
        out = tmp_path / "recal.json"
        assert run("recalibrate", "--pred", pred, "--out", out, "--fit-on", "self") == 0
        result = json.loads(out.read_text())
        report_out = tmp_path / "report.json"
        assert run("evaluate", "--pred", tmp_path / "recal.recalibrated.csv",
                   "--out", report_out) == 0
        area = json.loads(report_out.read_text())["miscalibration_area"]
        assert area == pytest.approx(result["area_after"], abs=1e-9)

    def test_split_policy_reports_holdout(self, tmp_path):
        from conftest import gaussian_null

        p = gaussian_null(2000, seed=14, sigma_scale=0.5)
        pred = tmp_path / "pred.csv"
        io.write_predictions_csv(pred, p)
        out = tmp_path / "recal.json"
        assert run("recalibrate", "--pred", pred, "--out", out, "--seed", 15) == 0
        result = json.loads(out.read_text())
        assert result["fit_policy"] == "split"
        assert result["n_fit"] == 1000
        assert result["holdout"]["n"] == 1000
        assert result["holdout"]["area_after"] < result["holdout"]["area_before"]

    def test_fit_fraction_one_fits_every_row(self, workspace, tmp_path):
        out = tmp_path / "recal.json"
        assert run("recalibrate", "--pred", workspace["preds"]["ensemble"], "--out", out,
                   "--fit-fraction", 1.0) == 0
        result = json.loads(out.read_text())
        assert result["n_fit"] == result["n_total"] == 120 and result["holdout"] is None

    @staticmethod
    def _three_usable_rows(tmp_path):
        """20 rows; only r0-r2 have sigma > 0."""
        pred = tmp_path / "pred.csv"
        rows = [f"r{i},{i % 3},0.5,{(0.5, 0.6, 0.7)[i] if i < 3 else 0}" for i in range(20)]
        pred.write_text("id,y_true,y_pred,sigma\n" + "\n".join(rows) + "\n")
        return pred

    @pytest.mark.parametrize("seed", [2, 3, 5, 7, 9, 11])
    def test_holdout_without_two_usable_rows_is_null(self, tmp_path, seed):
        out = tmp_path / "recal.json"
        assert run("recalibrate", "--pred", self._three_usable_rows(tmp_path), "--out", out,
                   "--seed", seed) == 0
        result = json.loads(out.read_text())
        assert result["n_fit"] == 10 and result["holdout"] is None

    @pytest.mark.parametrize("seed, message", [
        (1, "need >= 2 points with sigma > 0, got 1"),
        (14, "every sigma is zero; no calibration curve exists"),
    ])
    def test_fit_half_without_two_usable_rows_fails_with_the_fit_message(
            self, tmp_path, capsys, seed, message):
        pred = self._three_usable_rows(tmp_path)
        assert run("recalibrate", "--pred", pred, "--out", tmp_path / "r.json",
                   "--seed", seed) == 1
        _one_error_line(capsys, message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.csv"]

    # a negative value in exponent or trailing-dot form is a number, not a flag
    @pytest.mark.parametrize("fraction", [1.5, -0.5, 0.0, "-1e-3", "-1E2", "-5."])
    def test_fit_fraction_outside_unit_interval_fails_before_the_csv_is_read(
            self, tmp_path, capsys, fraction):
        assert run("recalibrate", "--pred", tmp_path / "missing.csv", "--out", tmp_path / "r.json",
                   "--fit-fraction", fraction) == 1
        _one_error_line(capsys, f"--fit-fraction must lie in (0, 1], got {float(fraction)}")
        assert list(tmp_path.iterdir()) == []

    def test_fit_fraction_leaving_one_fit_row_is_named(self, workspace, tmp_path, capsys):
        assert run("recalibrate", "--pred", workspace["preds"]["ensemble"],
                   "--out", tmp_path / "r.json", "--fit-fraction", 0.01) == 1
        _one_error_line(capsys, "fit fraction 0.01 leaves 1 fit rows")
        assert list(tmp_path.iterdir()) == []


class TestScreen:
    def test_screen_report_contract(self, tmp_path):
        from conftest import make_pset

        p = make_pset([0.10, 0.30, 0.0], [0.05, 0.05, 0.0], [0.04, 0.04, 0.06])
        pred = tmp_path / "pred.csv"
        io.write_predictions_csv(pred, p)
        out = tmp_path / "screen.json"
        assert run("screen", "--pred", pred, "--out", out) == 0
        rep = json.loads(out.read_text())
        assert rep["n_selected"] == 2
        assert rep["honest_ids"] == ["p0"]
        assert rep["dishonest_ids"] == ["p1"]
        assert rep["criteria"]["sigma_max"] == 0.05

    def test_impossible_window_selects_nothing(self, workspace, tmp_path):
        out = tmp_path / "screen.json"
        assert run("screen", "--pred", workspace["preds"]["ensemble"], "--out", out,
                   "--lo", 1e6, "--hi", 2e6) == 0
        assert json.loads(out.read_text())["n_selected"] == 0


class TestConfigAndManifests:
    def test_rerun_from_manifest_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", workspace["preds"]["evidential"], "--out", out) == 0
        first = out.read_bytes()
        manifest = io.manifest_path(out)
        assert run("evaluate", "--config", manifest) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("command, n_outputs", [("evaluate", 3), ("screen", 1)])
    def test_seed_is_recorded_but_draws_nothing(self, workspace, tmp_path, command, n_outputs):
        outputs = {}
        for seed in (7, 9):
            out = tmp_path / str(seed) / "out.json"
            assert run(command, "--pred", workspace["preds"]["dropout"], "--out", out,
                       "--seed", seed) == 0
            assert json.loads(io.manifest_path(out).read_text())["config"]["seed"] == seed
            outputs[seed] = {p.name: p.read_bytes() for p in out.parent.iterdir()
                             if not p.name.endswith(".manifest.json")}
        assert len(outputs[7]) == n_outputs and outputs[7] == outputs[9]

    def test_manifest_for_wrong_command_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("evaluate", "--pred", workspace["preds"]["evidential"], "--out", out) == 0
        assert run("screen", "--config", io.manifest_path(out)) == 1
        assert "manifest" in capsys.readouterr().err

    def test_plain_config_file(self, workspace, tmp_path):
        out = tmp_path / "screen.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "pred": str(workspace["preds"]["ensemble"]),
            "out": str(out),
            "sigma-max": 0.2,
        }))
        assert run("screen", "--config", cfg) == 0
        assert json.loads(out.read_text())["criteria"]["sigma_max"] == 0.2

    def test_config_given_with_equals_sign(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_train": 30}')
        assert run("generate", f"--config={cfg}", "--out", tmp_path / "data",
                   "--n-test", 5, "--dim", 1) == 0
        assert len((tmp_path / "data/train.csv").read_text().splitlines()) == 31

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert run("screen", "--config", cfg) == 1
        assert "bogus" in capsys.readouterr().err

    def test_flags_override_config(self, workspace, tmp_path):
        out = tmp_path / "screen.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "pred": str(workspace["preds"]["ensemble"]),
            "out": str(out),
            "sigma-max": 0.2,
        }))
        assert run("screen", "--config", cfg, "--sigma-max", 0.3) == 0
        assert json.loads(out.read_text())["criteria"]["sigma_max"] == 0.3

    @pytest.mark.parametrize("body", [
        json.dumps({"format": io.MANIFEST_FORMAT, "command": "screen"}),  # no "config" key
        '["pred", "out"]',
    ], ids=("manifest-without-config", "list"))
    def test_config_that_is_not_an_object(self, tmp_path, capsys, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(body)
        assert run("screen", "--config", cfg) == 1
        _one_error_line(capsys, f"{cfg}: config must be a JSON object")
        assert list(tmp_path.iterdir()) == [cfg]


class TestHeaderOnlyInputs:
    @pytest.mark.parametrize("header, argv, message", [
        ("id,x0,y", ["train", "--method", "dropout", *FAST_TRAIN, "--train"],
         "has no rows; cannot train"),
        ("id,y_true,y_pred,sigma", ["evaluate", "--pred"], "has no prediction rows"),
    ], ids=("train", "evaluate"))
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, header, argv, message):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(header + "\n")
        assert run(*argv, csv_path, "--out", tmp_path / "out.json") == 1
        _one_error_line(capsys, f"{csv_path} {message}")
        assert list(tmp_path.iterdir()) == [csv_path]


class TestNulInText:
    # an id or group tag is held as fixed-width bytes, which drop a NUL at a
    # cell's end; csv.reader refuses NUL itself before Python 3.11
    @pytest.mark.parametrize("text, argv", [
        ('id,y_true,y_pred,sigma\nok,1,1,1\n"a\x00",1,1,1\n', ["evaluate", "--pred"]),
        ('id,y_true,y_pred,sigma,group\nok,1,1,1,g\na,1,1,1,"g\x00"\n', ["screen", "--pred"]),
        ("id,x0,y\nok,1,2\nr\x00,1,2\n", ["train", "--method", "dropout", *FAST_TRAIN, "--train"]),
    ], ids=["id", "group", "dataset-id"])
    def test_one_error_line_naming_the_line(self, tmp_path, capsys, text, argv):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(text)
        assert run(*argv, csv_path, "--out", tmp_path / "out.json") == 1
        _one_error_line(capsys, f"{csv_path}:3: ")
        assert list(tmp_path.iterdir()) == [csv_path]


def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("uqregress: error:")
    for needle in needles:
        assert needle in err[0]


def _drop(key):
    return lambda d: d.pop(key)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _short_bias(d):
    d["biases"][0] = d["biases"][0][:-1]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("method, mutate, key", [
        ("dropout", _drop("layer_widths"), "layer_widths"),
        ("dropout", _drop("weights"), "weights"),
        ("dropout", _set("layer_widths", "2,8,1"), "layer_widths"),
        ("dropout", _set("layer_widths", [2.0, 8, 1]), "layer_widths"),
        ("dropout", _set("seed", [4]), "seed"),
        ("dropout", _set("seed", [4, "0"]), "seed"),
        ("dropout", _set("seed", [4, -1]), "seed"),
        ("dropout", _set("seed", [2**64, 0]), "seed"),
        ("dropout", _set("dropout_rate", True), "dropout_rate"),
        ("dropout", _set("activation", None), "activation"),
        ("dropout", _set("extra", 1), "extra"),
        ("dropout", _short_bias, "biases"),
        ("dropout", lambda d: d["weights"][0][0].__setitem__(0, "x"), "weights"),
        ("ensemble", _drop("members"), "members"),
        ("ensemble", _set("k", 2), "'k'"),
        ("ensemble", lambda d: d["members"][1].pop("biases"), "members[1]"),
    ])
    def test_one_error_line_naming_file_and_key(self, workspace, tmp_path, capsys,
                                                method, mutate, key):
        d = json.loads(workspace["models"][method].read_text())
        mutate(d)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(d))
        out = tmp_path / "out" / "pred.csv"
        assert run("predict", "--method", method, "--model", model,
                   "--test", workspace["data"] / "test.csv", "--out", out) == 1
        _one_error_line(capsys, str(model), key)
        assert not (tmp_path / "out").exists() or list((tmp_path / "out").iterdir()) == []

    def test_one_member_ensemble(self, workspace, tmp_path, capsys):
        # a checkpoint can hold one member, but a std needs two
        d = json.loads(workspace["models"]["ensemble"].read_text())
        d["k"], d["members"] = 1, d["members"][:1]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(d))
        assert run("predict", "--method", "ensemble", "--model", model,
                   "--test", workspace["data"] / "test.csv", "--out", tmp_path / "p.csv") == 1
        _one_error_line(capsys, "need >= 2 members")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("body, needle", [(b"[1, 2]\n", "JSON object"),
                                              (b"\xff\xfe{}", "UTF-8")])
    def test_not_an_object(self, workspace, tmp_path, capsys, body, needle):
        model = tmp_path / "model.json"
        model.write_bytes(body)
        assert run("predict", "--method", "dropout", "--model", model,
                   "--test", workspace["data"] / "test.csv", "--out", tmp_path / "p.csv") == 1
        _one_error_line(capsys, str(model), needle)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestIllTypedConfig:
    @pytest.mark.parametrize("command, key, value", [
        ("train", "epochs", [1, 2]),
        ("train", "epochs", 2.5),
        ("train", "epochs", True),
        ("train", "learning-rate", "0.1"),
        ("train", "method", "bogus"),
        ("train", "hidden", [32, 32]),
        ("train", "out", None),
        ("predict", "sqrt-uncertainty", 1),
        ("predict", "samples", None),
        ("screen", "sigma_max", {"v": 1}),
        ("screen", "out", "a\x00b"),  # no command line holds a NUL
    ])
    def test_one_error_line_naming_key(self, workspace, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out.json"
        flags = {
            "train": ["--method", "dropout", "--train", workspace["data"] / "train.csv",
                      "--out", out, *FAST_TRAIN],
            "predict": ["--method", "evidential", "--model", workspace["models"]["evidential"],
                        "--test", workspace["data"] / "test.csv", "--out", out],
            "screen": ["--pred", workspace["preds"]["ensemble"], "--out", out],
        }[command]
        assert run(command, "--config", cfg, *flags) == 1
        _one_error_line(capsys, str(cfg), repr(key))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"sigma-max": 0.1, "pred": "\xff"}')
        assert run("screen", "--config", cfg) == 1
        _one_error_line(capsys, str(cfg), "UTF-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_values_a_flag_could_give_are_accepted(self, workspace, tmp_path):
        out = tmp_path / "pred.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "evidential", "rate": None, "seed": 5,
                                   "sqrt_uncertainty": False, "samples": 1000}))
        assert run("predict", "--config", cfg, "--model", workspace["models"]["evidential"],
                   "--test", workspace["data"] / "test.csv", "--out", out) == 0
        assert out.read_bytes() == workspace["preds"]["evidential"].read_bytes()

    def test_integral_number_for_a_float_flag_parses_as_float(self, workspace, tmp_path):
        out = tmp_path / "screen.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pred": str(workspace["preds"]["ensemble"]),
                                   "out": str(out), "sigma-max": 1}))
        assert run("screen", "--config", cfg) == 0
        assert io.read_manifest(io.manifest_path(out))["config"]["sigma_max"] == 1.0
        assert json.loads(out.read_text())["criteria"]["sigma_max"] == 1.0


def _nested(depth):
    return json.loads("[" * depth + "]" * depth)


class TestOversizedInput:
    @pytest.mark.parametrize("config, argv, head", [
        ({"lo": _nested(900)}, ["screen"], "{cfg}: config key 'lo': --lo cannot take the value [[[["),
        ({"k" * 5000: 1}, ["screen"], "{cfg}: unknown config key 'kkkk"),
        (None, ["train", "--hidden", "x" * 3000], "--hidden must be comma-separated integers, got 'xxxx"),
        (None, ["screen", "--lo", "x" * 3000], "argument --lo: invalid float value: 'xxxx"),
    ], ids=["deep-config-value", "long-config-key", "long-hidden", "argparse-value"])
    def test_error_line_is_capped(self, workspace, tmp_path, capsys, config, argv, head):
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", cfg]
        inputs = {"screen": ["--pred", workspace["preds"]["ensemble"]],
                  "train": ["--method", "dropout", "--train", workspace["data"] / "train.csv"]}
        assert run(*argv, *inputs[argv[0]], "--out", tmp_path / "out.json") == 1
        err = capsys.readouterr().err.splitlines()
        # the message's first 1,000 characters, then an ellipsis
        assert len(err) == 1 and err[0].startswith(f"uqregress: error: {head.format(cfg=cfg)}")
        assert len(err[0]) == len("uqregress: error: ") + 1001 and err[0].endswith("…")
        assert not (tmp_path / "out.json").exists()


class TestUnwritableInputs:
    @pytest.mark.parametrize("command, flags", [("screen", ["--hi", "inf"]),
                                                ("evaluate", ["--honesty-multiplier", "inf"]),
                                                ("screen", ["--sigma-max", "nan"])])
    def test_non_finite_flag_is_one_error_line(self, workspace, tmp_path, capsys, command, flags):
        # no command can use NaN or inf, and strict JSON cannot record it:
        # the flag is named before any work, and nothing is written
        out = tmp_path / "out.json"
        assert run(command, "--pred", workspace["preds"]["ensemble"], "--out", out, *flags) == 1
        _one_error_line(capsys, f"{flags[0]} must be a finite number, got {flags[1]}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flags, needle", [
        ("evaluate", ["--violin-points", -1], "--violin-points must be >= 1, got -1"),
        ("evaluate", ["--violin-points", 0], "--violin-points must be >= 1, got 0"),
        # 6.94 EiB: far beyond any address space, so the allocation is refused
        # at once; the calibration curve is written before the violin grid
        ("evaluate", ["--violin-points", 10**18], "Unable to allocate 6.94 EiB"),
        ("evaluate", ["--grid-size", 10**18], "Unable to allocate 6.94 EiB"),
        ("adversarial", ["--trials", 10**18, "--fractions", 1.0], "Unable to allocate 6.94 EiB"),
        # sizes no float64 array can have, refused before numpy is asked
        ("generate", ["--n-train", 10**20], "n * dim is 400000000000000000000, more than"),
        ("generate", ["--dim", 10**20], "n * dim is 500000000000000000000000, more than"),
        ("generate", ["--n-train", 2**62], f"n * dim is {2**64}, more than"),
        ("generate", ["--groups", 10**20], f"n_groups is {10**20}, more than"),
        ("train", ["--hidden", 10**20],
         f"the parameter count of layer widths (2, {10**20}, 1) is {4 * 10**20 + 1}, more than"),
        ("evaluate", ["--grid-size", 10**20], f"grid_size is {10**20}, more than"),
        ("evaluate", ["--grid-size", 2**63 - 1], f"grid_size is {2**63 - 1}, more than"),
        ("evaluate", ["--violin-points", 10**20], f"--violin-points is {10**20}, more than"),
        ("evaluate", ["--violin-points", 2**62], f"--violin-points is {2**62}, more than"),
        ("adversarial", ["--trials", 10**20, "--fractions", 1.0], f"trials is {10**20}, more than"),
        ("adversarial", ["--grid-size", 10**20, "--fractions", 1.0], f"grid_size is {10**20}, more"),
        ("recalibrate", ["--grid-size", 10**20], f"grid_size is {10**20}, more than"),
        # counts below their least value, named by the library's one count check
        ("train", ["--method", "ensemble", "--k", 1], "k must be >= 2, got 1"),
        ("train", ["--hidden", "0,8"], "layer width must be >= 1, got 0"),
        ("predict", ["--samples", 1], "samples must be >= 2, got 1"),
        ("adversarial", ["--trials", 0], "trials must be >= 1, got 0"),
        ("adversarial", ["--subgroups", 0], "subgroups must be >= 1, got 0"),
    ])
    def test_work_size_flag_is_one_error_line(self, workspace, tmp_path, capsys, command, flags,
                                              needle):
        files = {"generate": ["--out", tmp_path / "data"],
                 "train": ["--method", "dropout", "--train", workspace["data"] / "train.csv",
                           "--out", tmp_path / "m.json"],
                 "predict": ["--method", "dropout", "--model", workspace["models"]["dropout"],
                             "--test", workspace["data"] / "test.csv", "--out", tmp_path / "p.csv"]}
        assert run(command, *files.get(command, ["--pred", workspace["preds"]["ensemble"],
                                                 "--out", tmp_path / "r.json"]), *flags) == 1
        _one_error_line(capsys, needle)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [("train", "--dropout-rate"), ("predict", "--rate")])
    def test_rate_that_drops_no_unit_is_one_error_line(self, workspace, tmp_path, capsys, command,
                                                      flag):
        # a mask unit is dropped when its 16-bit lane is below round(rate * 65536)
        files = {"train": ["--train", workspace["data"] / "train.csv", "--out", tmp_path / "m.json"],
                 "predict": ["--model", workspace["models"]["dropout"],
                             "--test", workspace["data"] / "test.csv", "--out", tmp_path / "p.csv"]}
        assert run(command, "--method", "dropout", *files[command], flag, 1e-6) == 1
        _one_error_line(capsys, "1e-06 would drop no unit")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_config_value_names_the_flag(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"honesty_multiplier": Infinity}')  # Python's json reads it
        assert run("evaluate", "--config", cfg, "--pred", workspace["preds"]["ensemble"],
                   "--out", tmp_path / "r.json") == 1
        _one_error_line(capsys, "--honesty-multiplier must be a finite number, got inf")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_divergent_training_is_one_error_line(self, workspace, tmp_path, capsys):
        # the overflow is reported once, by the divergence error, not also
        # by a numpy RuntimeWarning on stderr
        out = tmp_path / "m.json"
        assert run("train", "--method", "dropout", "--train", workspace["data"] / "train.csv",
                   "--out", out, "--hidden", 4, "--epochs", 3, "--learning-rate", 1e308) == 1
        _one_error_line(capsys, "non-finite parameters in layer 0 at epoch 0, step 0")
        assert list(tmp_path.iterdir()) == []

    def test_bad_hidden_fails_before_the_training_csv_is_read(self, tmp_path, capsys):
        assert run("train", "--method", "dropout", "--train", tmp_path / "missing.csv",
                   "--out", tmp_path / "m.json", "--hidden", "8,x") == 1
        _one_error_line(capsys, "--hidden must be comma-separated integers, got '8,x'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("learning_rate, needles", [
        (1e30, ["loss is inf for sample 'r000089'"]),
        (1e308, ["network output is [", ", inf, -inf] for sample 'r000162'"]),
    ])
    def test_divergent_evidential_training_names_the_sample(self, workspace, tmp_path, capsys,
                                                            learning_rate, needles):
        # a non-finite head output is named with its sample, before a loss
        # is computed from it
        out = tmp_path / "m.json"
        assert run("train", "--method", "evidential", "--train", workspace["data"] / "train.csv",
                   "--out", out, "--seed", 4, *FAST_TRAIN, "--epochs", 5,
                   "--learning-rate", learning_rate) == 1
        _one_error_line(capsys, *needles)
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_checkpoint_names_the_sample(self, workspace, tmp_path, capsys):
        # the last hidden layer saturates at 1 and the head's weights of 1e308
        # sum past the float range: the outputs overflow to inf and their
        # spread to NaN, and predict must not write them (nor print numpy's
        # RuntimeWarnings)
        d = json.loads(workspace["models"]["dropout"].read_text())
        d["biases"][-2] = [1e3] * len(d["biases"][-2])
        d["weights"][-1] = [[1e308] * len(row) for row in d["weights"][-1]]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(d))
        assert run("predict", "--method", "dropout", "--model", model, "--samples", 3,
                   "--test", workspace["data"] / "test.csv", "--out", tmp_path / "p.csv") == 1
        _one_error_line(capsys, "non-finite mu at index 0 (id='r000000')")
        assert list(tmp_path.iterdir()) == [model]

    @pytest.mark.parametrize("argv, needle", [
        (["screen", "--hi", "abc"], "argument --hi: invalid float value: 'abc'"),
        (["screen", "--lo"], "argument --lo: expected one argument"),
        (["screen", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["--config", "c.json", "screen"], "--config requires a leading command name"),
    ])
    def test_usage_error_is_one_error_line(self, workspace, tmp_path, capsys, argv, needle):
        assert run(*argv, "--pred", workspace["preds"]["ensemble"], "--out",
                   tmp_path / "s.json") == 1
        _one_error_line(capsys, needle)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", ".", ".."])
    def test_output_path_naming_a_directory(self, workspace, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert run("screen", "--pred", workspace["preds"]["ensemble"], "--out", out) == 1
        _one_error_line(capsys, "names a directory, not a file")
        assert list(tmp_path.iterdir()) == []

    def test_failed_rerun_removes_outputs_and_their_old_manifests(self, workspace, tmp_path,
                                                                   capsys, monkeypatch):
        # the first run leaves manifests beside the outputs; the failed rerun
        # rewrites the outputs, then fails on its first manifest (a full disk)
        out = tmp_path / "r.json"
        assert run("evaluate", "--pred", workspace["preds"]["ensemble"], "--out", out) == 0

        def disk_full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(io, "write_manifest", disk_full)
        assert run("evaluate", "--pred", workspace["preds"]["ensemble"], "--out", out,
                   "--grid-size", 9) == 1
        _one_error_line(capsys, "No space left on device")
        assert list(tmp_path.iterdir()) == []

    def test_unexpected_error_propagates_and_removes_the_outputs(self, workspace, tmp_path,
                                                                 monkeypatch):
        # an exception outside the error contract is a missing check: it keeps
        # its traceback, and the run still leaves no output or directory
        def missing_check(*args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(io, "write_manifest", missing_check)
        with pytest.raises(ZeroDivisionError):
            run("evaluate", "--pred", workspace["preds"]["ensemble"], "--out",
                tmp_path / "new" / "r.json", "--curve-out", tmp_path / "c.csv")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, body", [("screen", b"id,y_true,y_pred,sigma\n\xff,1,1,1\n"),
                                               ("train", b"id,x0,y\nr0,1,\xff\n")])
    def test_csv_that_is_not_utf8(self, tmp_path, capsys, command, body):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        flags = {"screen": ["--pred", bad],
                 "train": ["--method", "dropout", "--train", bad, *FAST_TRAIN]}[command]
        assert run(command, *flags, "--out", tmp_path / "out.json") == 1
        _one_error_line(capsys, f"{bad}:2:", "UTF-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("command, body", [
        ("screen", b"id,y_true,y_pred,sigma\nr0,1,1,1\n" + b"r" * 200_000 + b",1,1,1\n"),
        ("train", b"id,x0,y\nr0,1,2\n" + b"r" * 140_000 + b",1,2\n"),
    ], ids=["screen", "train"])
    def test_csv_field_over_the_size_limit(self, tmp_path, capsys, command, body):
        # longer than csv.field_size_limit(), so the csv module rejects the line
        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        flags = {"screen": ["--pred", bad],
                 "train": ["--method", "dropout", "--train", bad, *FAST_TRAIN]}[command]
        assert run(command, *flags, "--out", tmp_path / "new" / "out.json") == 1
        _one_error_line(capsys, f"{bad}:3: field larger than field limit (131072)")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("command, flags, kept", [
        # train.csv is written under o/d before the test set's size is refused
        ("generate", ["--out", "o/d", "--n-test", 10**20], []),
        ("generate", ["--out", "keep/o/d", "--n-test", 10**20], ["keep"]),
        # the curve goes to c/d before the violin grid's allocation fails
        ("evaluate", ["--out", "r/r.json", "--curve-out", "keep/c/d/curve.csv",
                      "--violin-points", 10**18], ["keep"]),
    ])
    def test_failed_run_removes_the_directories_it_created(self, workspace, tmp_path, capsys,
                                                           monkeypatch, command, flags, kept):
        # directories that existed before the run stay, even when empty
        monkeypatch.chdir(tmp_path)
        for name in kept:
            (tmp_path / name).mkdir()
        pred = ["--pred", workspace["preds"]["ensemble"]] if command == "evaluate" else []
        assert run(command, *pred, *flags) == 1
        _one_error_line(capsys)
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == kept
