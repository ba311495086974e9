"""The column-wise CSV codec against the per-cell ``csv``-module reference.

Written bytes must equal the reference writer's, values read back must be
bit-identical to the reference reader's, and malformed files must get the
same accept/reject decision and the same error text.
"""

import csv
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_reference as ref
from uqregress import io
from uqregress.core import PredictionSet, validate_prediction_set
from uqregress.errors import DuplicateIdError, NonFiniteValueError

SPECIAL_FLOATS = (
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-310,
    0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1e300, 1e-300, -1e300,
    0.1, 1 / 3, 123456789.123, float("inf"), float("-inf"), float("nan"),
)
SPECIAL_TEXT = ("", " ", ",", '"', 'a"b', "x,y", "#lead", " pad ", "über", "名前", "tab\tx", "a\nb")

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
plain_text = st.text(alphabet="abcXYZ019_-. #", max_size=6)
# NUL is refused in text cells (a bytes column would drop it at a cell's end)
any_text = st.text(max_size=6, alphabet=st.characters(blacklist_categories=("Cs",),
                                                    blacklist_characters="\x00"))
texts = st.one_of(st.sampled_from(SPECIAL_TEXT), plain_text, any_text)
SMALL_CHUNKS = (2, 7)  # CHUNK_ROWS values that put chunk boundaries inside small files
SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _texts(column):
    """A text column's cells as str, or None."""
    return None if column is None else tuple(c.decode() for c in column.tolist())


def _outcome(fn, path):
    """A comparable summary of reading ``path``: its values or its error.

    A file without rows is ("no rows", header width), whether the reader
    returns a zero-row record, whose columns give the width, or the
    reference's None, which leaves the width to the file's header.
    """
    try:
        got = fn(path)
    except Exception as exc:  # the reference may raise csv errors too
        return ("error", type(exc).__name__, str(exc))
    if got is None or getattr(got, "dataset", got) is None:
        with open(path, newline="", encoding="utf-8") as f:
            return ("no rows", len(next(csv.reader(f))))
    if isinstance(got, PredictionSet):
        if got.n == 0:
            return ("no rows", 4 + (got.groups is not None))
        return ("pset", _texts(got.ids), _texts(got.groups),
                got.y_true.tobytes(), got.mu.tobytes(), got.sigma.tobytes())
    ds = got.dataset
    if ds.n == 0:
        return ("no rows", 2 + ds.dim + (ds.groups is not None) + (got.true_sigma is not None))
    body = (_texts(ds.ids), _texts(ds.groups), ds.features.tobytes(), ds.features.shape, ds.targets.tobytes())
    sigma = None if got.true_sigma is None else got.true_sigma.tobytes()
    return ("dataset", ds.dim, body, sigma)


def _same_read(path: Path) -> None:
    if path.read_bytes().startswith(b"id,y_true"):
        assert _outcome(io.read_predictions_csv, path) == _outcome(ref.read_predictions_csv, path)
    else:
        assert _outcome(io.read_dataset_csv, path) == _outcome(ref.read_dataset_csv, path)


@st.composite
def prediction_sets(draw):
    n = draw(st.integers(0, 12))
    cols = [np.array(draw(st.lists(floats, min_size=n, max_size=n))) for _ in range(3)]
    ids = tuple(draw(st.lists(texts, min_size=n, max_size=n)))
    groups = tuple(draw(st.lists(texts, min_size=n, max_size=n))) if draw(st.booleans()) else None
    return PredictionSet(ids, *cols, groups=groups)


@SETTINGS
@given(prediction_sets())
def test_prediction_csv_matches_reference(p):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        io.write_predictions_csv(new, p)
        ref.write_predictions_csv(old, p)
        assert new.read_bytes() == old.read_bytes()
        _same_read(new)


@SETTINGS
@given(st.integers(0, 10), st.integers(1, 3), st.booleans(), st.booleans(), st.data())
def test_dataset_csv_matches_reference(n, dim, with_groups, with_sigma, data):
    ids = tuple(data.draw(st.lists(texts, min_size=n, max_size=n)))
    feats = np.array(data.draw(st.lists(floats, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    targets = np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
    groups = tuple(data.draw(st.lists(texts, min_size=n, max_size=n))) if with_groups else None
    sigma = np.array(data.draw(st.lists(floats, min_size=n, max_size=n))) if with_sigma else None
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        kwargs = dict(ids=ids, features=feats, targets=targets, groups=groups, true_sigma=sigma)
        io.write_dataset_csv(new, **kwargs)
        ref.write_dataset_csv(old, dim, **kwargs)
        assert new.read_bytes() == old.read_bytes()
        _same_read(new)


def test_table_writers_match_reference(tmp_path):
    from types import SimpleNamespace

    grid = np.array([5e-324, -0.0, 0.25, 1e300, 1 / 3])
    curve = SimpleNamespace(expected=grid, observed=grid[::-1])
    adv = SimpleNamespace(group_fractions=grid, mean_worst_area=grid * 2, std_error=grid / 3)
    summary = SimpleNamespace(eval_grid=grid, densities=grid + 1)
    for name, obj in (("write_curve_csv", curve), ("write_adversarial_csv", adv),
                      ("write_violin_csv", summary)):
        getattr(io, name)(tmp_path / "new.csv", obj)
        getattr(ref, name)(tmp_path / "old.csv", obj)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), name


PRED = b"id,y_true,y_pred,sigma\n"
DATA = b"id,x0,x1,y,group,true_sigma\n"
MALFORMED = [
    b"",
    b"\n",
    b"id,y_true,y_pred,sigma",
    PRED + b"r0,1.0,2.0\n",                           # ragged: too few
    PRED + b"r0,1.0,2.0,3.0,4.0\n",                   # ragged: too many
    PRED + b"r0,1.0,2.0,3.0\nr1,1.0,2.0\nr2,1,2,3,4\n",  # compensating ragged rows
    PRED + b"r0,oops,2.0,3.0\n",
    PRED + b"r0,1.0,2.0,3.0\n\nr1,1.0,2.0,3.0\n",     # blank line
    PRED + b"r0,1.0,2.0,3.0\n\n",                     # trailing blank line
    PRED.replace(b"\n", b"\r\n") + b"r0,1.0,2.0,3.0\r\nr1,4,5,6\r\n",
    PRED + b"r0,1.0,2.0,3.0\n \nr1,1.0,2.0,3.0\n",    # whitespace-only line
    PRED + b"r0,1_0,2.0,3.0\n",                       # float() accepts underscores
    PRED + b"r0, 1.5 ,2.0,\t3.0\n",
    PRED + b"r0,\x1c1.5,2.0,3.0\n",                   # loadtxt strips \x1c, float() does not
    PRED + b"r0,\x0b1.5,2.0,3.0\n",
    PRED + b"r0,1.0,2.0,3.0\x00\n",
    PRED + b'"r,0",1.0,2.0,3.0\n"q""",1,2,3\n',
    PRED + b"r0,nan,inf,-Infinity\n",
    PRED + b"r0,-nan,+NaN,-0\n",                      # sign bits must survive
    PRED + b"r0,1e400,-1e-400,4.9e-324\n",
    PRED + b"r0,,2.0,3.0\n",
    PRED + b"#r0,1.0,2.0,3.0\n",
    PRED + b"r0,1.0,2.0,3.0",                         # no final newline
    PRED + "ü,1.0,2.0,3.0\n".encode(),
    PRED + b"r0,\xff,2.0,3.0\n",
    PRED + b"r0,1,2," + b"3" * 140_000 + b"\n",       # over csv's field size limit
    PRED + b"r0,\xd9\xa1,2,3\n",                      # Arabic-Indic digit one
    b"id,y_true,y_pred,sigma,group\nr0,1,2,3,g,h\n",
    b"id,y_true,y_pred,sigma,grp\nr0,1,2,3,g\n",
    b"id,y_true,y_pred\nr0,1,2\n",
    b'"id",y_true,y_pred,sigma\nr0,1,2,3\n',
    b" id,y_true,y_pred,sigma\n",
    DATA + b"r0,1,2,3,g,0.5\nr1,1,2,3,,0.5\n",
    DATA + b"r0,1,2,3,g\n",
    DATA + b"r0,1,2,oops,g,0.5\n",
    DATA + b"r0,1,2,3,g,1_0\n",
    DATA + b"r0,1,2,3,g,0.5\nr0,1,2,3,g,0.5\n",      # duplicate id
    DATA + b"r0,1,nan,3,g,0.5\n",                     # non-finite feature
    b"id,x0,y\n",
    b"id,x1,y\nr0,1,2\n",
    b"id,x0,group\nr0,1,g\n",
    b"foo,bar\n",
]


@pytest.mark.parametrize("content", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_corpus_matches_reference(tmp_path, content):
    path = tmp_path / "case.csv"
    path.write_bytes(content)
    assert _outcome(io.read_predictions_csv, path) == _outcome(ref.read_predictions_csv, path)
    assert _outcome(io.read_dataset_csv, path) == _outcome(ref.read_dataset_csv, path)


@SETTINGS
@given(st.lists(st.text(alphabet='0123456789.,e-+na_ x"#\n\r\x1c', max_size=14), max_size=6),
       st.sampled_from([PRED, DATA, b"id,x0,y\n"]))
def test_fuzzed_bodies_match_reference(lines, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.csv")
        path.write_bytes(header + "\n".join(lines).encode())
        assert _outcome(io.read_predictions_csv, path) == _outcome(ref.read_predictions_csv, path)
        assert _outcome(io.read_dataset_csv, path) == _outcome(ref.read_dataset_csv, path)


@pytest.mark.parametrize("chunk_rows", SMALL_CHUNKS)
@pytest.mark.parametrize("content", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_corpus_matches_reference_in_small_chunks(tmp_path, monkeypatch, content,
                                                            chunk_rows):
    monkeypatch.setattr(io, "CHUNK_ROWS", chunk_rows)
    path = tmp_path / "case.csv"
    path.write_bytes(content)
    assert _outcome(io.read_predictions_csv, path) == _outcome(ref.read_predictions_csv, path)
    assert _outcome(io.read_dataset_csv, path) == _outcome(ref.read_dataset_csv, path)


@SETTINGS
@given(st.lists(st.text(alphabet='0123456789.,e-+na_ x"#\n\r\x1c', max_size=14), max_size=16),
       st.sampled_from([PRED, DATA, b"id,x0,y\n"]), st.sampled_from(SMALL_CHUNKS))
def test_fuzzed_bodies_match_reference_in_small_chunks(lines, header, chunk_rows):
    with patch.object(io, "CHUNK_ROWS", chunk_rows), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.csv")
        path.write_bytes(header + "\n".join(lines).encode())
        assert _outcome(io.read_predictions_csv, path) == _outcome(ref.read_predictions_csv, path)
        assert _outcome(io.read_dataset_csv, path) == _outcome(ref.read_dataset_csv, path)


LATE_ROW = 24  # a data row in a later chunk for every SMALL_CHUNKS size; file line 26


@pytest.mark.parametrize("chunk_rows", SMALL_CHUNKS)
@pytest.mark.parametrize("fault", [None, "bad cell", "field count", "duplicate id"])
@pytest.mark.parametrize("header", [PRED, DATA], ids=["pred", "data"])
def test_fault_in_a_later_chunk_matches_reference(tmp_path, monkeypatch, chunk_rows, fault, header):
    monkeypatch.setattr(io, "CHUNK_ROWS", chunk_rows)
    names = header.decode().split()[0].split(",")
    rows = [[f"r{i}"] + [f"g{i % 3}" if c == "group" else repr(i / (j + 3))
                         for j, c in enumerate(names[1:])] for i in range(30)]
    if fault == "bad cell":
        rows[LATE_ROW][1] = "oops"
    elif fault == "field count":
        rows[LATE_ROW].pop()
    elif fault == "duplicate id":
        rows[LATE_ROW][0] = "r3"
    path = tmp_path / "late.csv"
    path.write_bytes(header + "".join(",".join(r) + "\n" for r in rows).encode())
    read, reference = ((io.read_predictions_csv, ref.read_predictions_csv) if header == PRED
                       else (io.read_dataset_csv, ref.read_dataset_csv))
    got = _outcome(read, path)
    assert got == _outcome(reference, path)
    line = f"{path}:{LATE_ROW + 2}: "
    if fault is None:  # the column parse takes the file, one chunk at a time
        check = io._check_prediction_header if header == PRED else io._check_dataset_header
        with patch.object(io.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            assert io._column_parse(path, path.read_bytes(), check) is not None
        assert loadtxt.call_count == -(-len(rows) // chunk_rows)
    elif fault == "bad cell":
        assert got[2] == f"{line}column {names[1]!r}: 'oops' is not a number"
    elif fault == "field count":
        assert got[2] == f"{line}expected {len(names)} fields, got {len(names) - 1}"
    elif header == DATA:
        assert got[2] == f"duplicate id 'r3' at row {LATE_ROW}"
    else:  # a prediction CSV's ids are checked when the set is validated
        with pytest.raises(DuplicateIdError, match=f"duplicate id 'r3' at index {LATE_ROW}$"):
            validate_prediction_set(read(path))


WIDE_ROW = 10  # in a later chunk than the first for every SMALL_CHUNKS size


@pytest.mark.parametrize("chunk_rows", [*SMALL_CHUNKS, io.CHUNK_ROWS])
@pytest.mark.parametrize("column", ["id", "group"])
@pytest.mark.parametrize("width, kind", [(64, "S"), (65, "O"), (80, "O")])
def test_wide_text_cells_take_the_column_parse(tmp_path, monkeypatch, chunk_rows, column, width,
                                              kind):
    # a text field holds TEXT_WIDTH_LIMIT + 1 bytes, so a cell of 65 or more
    # fills it and its chunk is read again as str; narrow chunks stay bytes
    monkeypatch.setattr(io, "CHUNK_ROWS", chunk_rows)
    ids = [f"r {i}#" if i % 2 else f"#r {i}" for i in range(20)]
    groups = [f" g#{i % 3} " for i in range(20)]
    (ids if column == "id" else groups)[WIDE_ROW] = "w" * width
    path = tmp_path / "wide.csv"
    path.write_bytes(b"id,y_true,y_pred,sigma,group\n" + "".join(
        f"{i},{k}.5,{k},0.25,{g}\n" for k, (i, g) in enumerate(zip(ids, groups))).encode())
    assert io._column_parse(path, path.read_bytes(), io._check_prediction_header) is not None
    got = _outcome(io.read_predictions_csv, path)
    assert got == _outcome(ref.read_predictions_csv, path)
    assert got[1] == tuple(ids) and got[2] == tuple(groups)
    back = io.read_predictions_csv(path)
    wide, narrow = (back.ids, back.groups) if column == "id" else (back.groups, back.ids)
    assert wide.dtype.kind == kind and (kind == "O" or wide.dtype.itemsize == width)
    assert narrow.dtype == np.dtype(f"S{max(map(len, narrow.tolist()))}")


def test_plain_file_takes_the_column_parse(tmp_path):
    rng = np.random.default_rng(0)
    p = PredictionSet(tuple(f"r{i}" for i in range(300)), rng.normal(size=300),
                      rng.normal(size=300), rng.uniform(size=300), groups=("g",) * 300)
    path = tmp_path / "pred.csv"
    io.write_predictions_csv(path, p)
    parsed = io._column_parse(path, path.read_bytes(), io._check_prediction_header)
    assert parsed is not None
    assert list(parsed) == ["id", "y_true", "y_pred", "sigma", "group"]
    assert np.array_equal(parsed["id"], p.ids) and np.array_equal(parsed["sigma"], p.sigma)


def test_quote_in_a_later_block_takes_the_line_scan(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_SCAN_BYTES", 64)
    rng = np.random.default_rng(2)
    n = 40
    p = PredictionSet(tuple(f"r,{i}" if i == 30 else f"r{i}" for i in range(n)), rng.normal(size=n),
                      rng.normal(size=n), rng.uniform(size=n))
    path = tmp_path / "pred.csv"
    io.write_predictions_csv(path, p)
    data = path.read_bytes()
    assert data.index(b'"') > 10 * io._SCAN_BYTES  # csv quotes the id "r,30"
    assert io._column_parse(path, data, io._check_prediction_header) is None
    with patch.object(io, "_scan_rows", wraps=io._scan_rows) as scan:
        got = _outcome(io.read_predictions_csv, path)
    assert scan.call_count == 1
    assert got == _outcome(ref.read_predictions_csv, path)
    assert got[1] == _texts(p.ids)


def test_plain_byte_check_holds_no_file_sized_buffer():
    data = PRED + b"r0,1.0,2.0,0.5\n" * (1 << 19) + b'"\n'  # 8 MB, its one quote at the end
    tracemalloc.start()
    try:
        assert io._column_parse(Path("big.csv"), data, io._check_prediction_header) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * io._SCAN_BYTES < len(data) / 2


def test_multi_chunk_write_matches_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "CHUNK_ROWS", 7)
    rng = np.random.default_rng(1)
    n = 50
    p = PredictionSet(tuple(f"r{i}" if i % 9 else f"r,{i}" for i in range(n)), rng.normal(size=n),
                      rng.normal(size=n), rng.uniform(size=n))
    io.write_predictions_csv(tmp_path / "new.csv", p)
    ref.write_predictions_csv(tmp_path / "old.csv", p)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class _FailsAfterFirstChunk(tuple):
    """A text column whose second chunk cannot be formatted."""

    def __getitem__(self, key):
        if isinstance(key, slice) and (key.start or 0) > 0:
            raise RuntimeError("disk full")
        self.served = True
        return tuple.__getitem__(self, key)


class TestAtomicWrites:
    def test_failed_csv_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "CHUNK_ROWS", 2)
        target = tmp_path / "out.csv"
        target.write_text("previous contents\n")
        ids = _FailsAfterFirstChunk(("a", "b", "c", "d"))
        with pytest.raises(RuntimeError, match="disk full"):
            io.write_columns_csv(target, ["id", "v"], [ids, np.arange(4.0)])
        assert ids.served  # the first chunk was formatted and written before the failure
        assert target.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_failed_json_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.json"
        io.write_json(target, {"a": 1})
        before = target.read_bytes()
        with pytest.raises(NonFiniteValueError, match=re.escape(str(target))):
            io.write_json(target, {"a": 1, "b": [1.0, float("nan")]})
        assert target.read_bytes() == before
        assert json.loads(before) == {"a": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_new_file_not_created_on_failure(self, tmp_path):
        target = tmp_path / "sub" / "new.json"
        with pytest.raises(NonFiniteValueError, match=re.escape(str(target))):
            io.write_json(target, {"x": float("inf")})
        assert not target.exists()
        assert list((tmp_path / "sub").iterdir()) == []

