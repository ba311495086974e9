"""Error-contract fuzz: a corrupted input either runs cleanly or fails in one line.

Each example corrupts one valid input of a command: a prediction CSV, a
checkpoint, a ``--config`` file or a flag value. It drops or retypes a key
(or a CSV column or cell), mutates a byte, or puts NaN, an overflowing
integer or garbage text in a value. The command must then either exit 0 with
a manifest beside every output, or exit 1 with exactly one
``uqregress: error:`` line, no traceback, and no output, manifest or
directory left behind.
"""

import contextlib
import csv
import io as stdio
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqregress.cli import main

BAD_VALUES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), 10**400, -1, 0, 1e308, True, None, [], {}]),
    st.text(max_size=8),
)
BAD_CELLS = st.one_of(st.sampled_from(["nan", "inf", "1e400", str(10**400), "", "-0"]),
                      st.text(max_size=8))
FLAGS = ("--lo", "--hi", "--sigma-max", "--multiplier", "--seed")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small dataset, a dropout checkpoint, its predictions and a screen config."""
    root = tmp_path_factory.mktemp("contract")
    data = root / "data"
    model = root / "model.json"
    pred = root / "pred.csv"
    assert main(["generate", "--out", str(data), "--n-train", "40", "--n-test", "12",
                 "--dim", "2", "--seed", "1"]) == 0
    assert main(["train", "--method", "dropout", "--train", str(data / "train.csv"),
                 "--out", str(model), "--hidden", "4", "--epochs", "1", "--seed", "2"]) == 0
    assert main(["predict", "--method", "dropout", "--model", str(model), "--test",
                 str(data / "test.csv"), "--out", str(pred), "--samples", "3"]) == 0
    config = {"pred": "pred.csv", "out": "screen.json", "lo": -1.0, "hi": 1.0,
              "sigma-max": 1.0, "multiplier": 3.0}
    return {"root": root, "test": (data / "test.csv").read_bytes(), "model": model.read_bytes(),
            "pred": pred.read_bytes(), "config": json.dumps(config).encode()}


def mutate_byte(data, raw: bytes) -> bytes:
    i = data.draw(st.integers(0, len(raw) - 1))
    return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1 :]


def corrupt_json(data, raw: bytes) -> bytes:
    """Drop or retype one key or list item, at any depth."""
    doc = json.loads(raw)
    node = doc
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(BAD_VALUES)
    return json.dumps(doc).encode()


def corrupt_csv(data, raw: bytes) -> bytes:
    """Drop one column or replace one cell (the header's included)."""
    rows = list(csv.reader(stdio.StringIO(raw.decode())))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    if data.draw(st.booleans()):
        rows = [row[:j] + row[j + 1 :] for row in rows]
    else:
        rows[data.draw(st.integers(0, len(rows) - 1))][j] = data.draw(BAD_CELLS)
    out = stdio.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def corrupt(data, raw: bytes, structured) -> bytes:
    return mutate_byte(data, raw) if data.draw(st.booleans()) else structured(data, raw)


def files_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def dirs_under(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_dir()}


def check_contract(workdir: Path, argv: list[str], needle: str = "") -> int:
    """Run ``argv`` inside ``workdir``, check one of the two outcomes and
    return the exit code; a failure's error line must contain ``needle``."""
    before, before_dirs = files_under(workdir), dirs_under(workdir)
    err = stdio.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # a corrupted config may name relative paths
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
            rc = main(argv)  # an uncaught exception fails the test: it would be a traceback
    finally:
        os.chdir(cwd)
    new = files_under(workdir) - before
    lines = err.getvalue().splitlines()
    if rc == 0:
        manifests = {f for f in new if f.endswith(".manifest.json")}
        outputs = new - manifests
        assert outputs and {f + ".manifest.json" for f in outputs} == manifests, new
    else:
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("uqregress: error:"), lines
        assert needle in lines[0], lines
        assert new == set(), new
        assert dirs_under(workdir) == before_dirs
    return rc


def workdir_with(inputs, **files: bytes) -> Path:
    workdir = Path(tempfile.mkdtemp(dir=inputs["root"]))
    for name, body in {"test.csv": inputs["test"], "model.json": inputs["model"],
                       "pred.csv": inputs["pred"], "config.json": inputs["config"],
                       **files}.items():
        (workdir / name).write_bytes(body)
    return workdir


FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@FUZZ
@given(data=st.data())
def test_corrupt_prediction_csv(inputs, data):
    body = corrupt(data, inputs["pred"], corrupt_csv)
    command = data.draw(st.sampled_from([["screen"], ["evaluate"], ["recalibrate"],
                                         ["adversarial", "--fractions", "0.5,1", "--trials", "2"]]))
    workdir = workdir_with(inputs, **{"pred.csv": body})
    check_contract(workdir, [*command, "--pred", "pred.csv", "--out", "out.json"])


@FUZZ
@given(data=st.data())
def test_corrupt_checkpoint(inputs, data):
    body = corrupt(data, inputs["model"], corrupt_json)
    workdir = workdir_with(inputs, **{"model.json": body})
    check_contract(workdir, ["predict", "--method", "dropout", "--model", "model.json",
                             "--test", "test.csv", "--out", "p.csv", "--samples", "3"])


@FUZZ
@given(data=st.data())
def test_corrupt_config(inputs, data):
    body = corrupt(data, inputs["config"], corrupt_json)
    workdir = workdir_with(inputs, **{"config.json": body})
    check_contract(workdir, ["screen", "--config", "config.json"])


@FUZZ
@given(flag=st.sampled_from(FLAGS),
       value=st.one_of(st.sampled_from(["nan", "-inf", str(10**400), "1e999", "", "0x10"]),
                       st.text(max_size=8)))
def test_corrupt_flag_value(inputs, flag, value):
    workdir = workdir_with(inputs)
    check_contract(workdir, ["screen", "--pred", "pred.csv", "--out", "out.json", flag, value])


TRAIN = ["train", "--method", "dropout", "--train", "test.csv", "--out", "m.json"]
ENSEMBLE = ["train", "--method", "ensemble", "--train", "test.csv", "--out", "m.json"]
PRED = ["--pred", "pred.csv", "--out", "out.json"]
ADVERSARIAL = ["adversarial", *PRED, "--fractions", "1"]


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "data", "--n-train", "-1"],
    ["generate", "--out", "data", "--dim", "0"],
    ["generate", "--out", "data", "--groups", "-3"],
    ["generate", "--out", "data", "--seed", "-1"],
    ["generate", "--out", "data", "--seed", str(2**64)],
    [*ENSEMBLE, "--k", "1"],
    [*ENSEMBLE, "--k", "13"],  # test.csv holds 12 rows
    [*TRAIN, "--batch-size", "0"],
    [*TRAIN, "--epochs", "-1"],
    [*TRAIN, "--hidden", "0"],
    *([command, *PRED, "--grid-size", size] for command in ("evaluate", "recalibrate")
      for size in ("0", "-5")),
    [*ADVERSARIAL, "--grid-size", "0"],
    [*ADVERSARIAL, "--grid-size", "-5"],
    [*ADVERSARIAL, "--trials", "0"],
    [*ADVERSARIAL, "--subgroups", "-1"],
], ids=" ".join)
def test_out_of_domain_int_flag(inputs, argv):
    assert check_contract(workdir_with(inputs), argv) == 1


FRACTIONS_DOMAIN = "fractions must lie in (0, 1]"


@pytest.mark.parametrize("argv, needle", [
    (["adversarial", *PRED, "--fractions", ","], "need at least one fraction"),
    (["adversarial", *PRED, "--fractions", "0,0.5"], FRACTIONS_DOMAIN),
    (["adversarial", *PRED, "--fractions", "1.5"], FRACTIONS_DOMAIN),
    (["adversarial", *PRED, "--fractions", "0.5,nan"], FRACTIONS_DOMAIN),
    (["recalibrate", *PRED, "--bracket-lo", "10", "--bracket-hi", "1"], "invalid bracket"),
    ([*TRAIN, "--hidden", ","], "--hidden must name at least one hidden layer"),
], ids=["no_fraction", "zero_fraction", "fraction_above_one", "nan_fraction", "inverted_bracket",
        "no_hidden_layer"])
def test_out_of_domain_value(inputs, argv, needle):
    assert check_contract(workdir_with(inputs), argv, needle) == 1


def test_adversarial_on_all_zero_sigmas(inputs):
    rows = list(csv.reader(stdio.StringIO(inputs["pred"].decode())))
    body = stdio.StringIO()
    csv.writer(body, lineterminator="\n").writerows(
        [rows[0], *([*r[:3], "0.0", *r[4:]] for r in rows[1:])])
    workdir = workdir_with(inputs, **{"pred.csv": body.getvalue().encode()})
    assert check_contract(workdir, ADVERSARIAL, "every sigma is zero") == 1


DEEP = b"[" * 200_000  # deeper than the JSON decoder can recurse
HUGE_INT = b'{"seed": ' + b"7" * 5_000 + b"}"  # past int()'s 4,300-digit limit


@pytest.mark.parametrize("body, needle", [(DEEP, "JSON nested too deeply"),
                                          (HUGE_INT, "Exceeds the limit (4300 digits)")],
                         ids=["deep", "huge_int"])
@pytest.mark.parametrize("argv, name", [
    (["screen", "--config", "config.json"], "config.json"),
    (["predict", "--method", "dropout", "--model", "model.json", "--test", "test.csv",
      "--out", "new/p.csv", "--samples", "3"], "model.json"),
], ids=["config", "model"])
def test_unreadable_json(inputs, argv, name, body, needle):
    assert check_contract(workdir_with(inputs, **{name: body}), argv, f"{name}: {needle}") == 1
