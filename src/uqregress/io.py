"""File formats: dataset/prediction/curve CSVs, model checkpoints, manifests.

All floats are written with shortest round-trip decimal formatting (repr), so
a write/read cycle reproduces every value bit-exactly and re-running a
command yields byte-identical files. Every writer also drops a sidecar
``<file>.manifest.json`` recording the command and resolved configuration
that produced the file.

CSV tables are written and read a column at a time, ``CHUNK_ROWS`` rows at a
time, so a read holds about the file's bytes plus the parsed columns. Text
cells (ids, group tags) are quoted exactly as ``csv.writer`` quotes them. A
file that is not plain (printable ASCII lines, no quotes, no blank lines), or
that the column parse rejects in any chunk, is read again line by line with
the ``csv`` module, and that scan alone decides what the file holds or which
error it raises. Every file is written to a sibling temp file that then
replaces the target, so a failed write leaves the target as it was.
"""

from __future__ import annotations

import csv
import json
import os
import re
import time
from contextlib import contextmanager
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path

import numpy as np

from . import __version__
from .core import DatasetFile, LabeledDataset, PredictionSet, RngSeed
from .errors import (FileParseError, LengthMismatchError, NonFiniteValueError, ReportSchemaError,
                     UqError)
from .neural import MlpConfig, MlpModel
from .report import _check_keys

MODEL_FORMAT = "uqregress-model-v1"
ENSEMBLE_FORMAT = "uqregress-ensemble-v1"
MANIFEST_FORMAT = "uqregress-manifest-v1"

CHUNK_ROWS = 16384  # CSV rows formatted per write and parsed per read
_SCAN_BYTES = 1 << 20  # bytes compared at a time when searching for a newline
# characters that can make csv.writer quote a field; such fields go through csv itself
_QUOTE_TRIGGER = re.compile('[,"\r\n\x00]')
# the bytes a plain CSV file may hold: printable ASCII except '"', and '\n'
_PLAIN_BYTES = bytes(c for c in range(0x20, 0x7F) if c != 0x22) + b"\n"


def _parse_float(token: str, path: Path, line: int, col: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise FileParseError(f"{path}:{line}: column {col!r}: {token!r} is not a number") from exc


def _floats(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


@contextmanager
def _replacing(path):
    """A text file on a sibling temp file that replaces ``path`` on success.

    On any exception the temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    if path.name in ("", ".", ".."):  # has no sibling temp file name
        raise IsADirectoryError(f"{str(path)!r} names a directory, not a file")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj: dict) -> None:
    with _replacing(path) as f:
        try:
            json.dump(obj, f, indent=2, allow_nan=False)
        except ValueError as exc:  # NaN or +-inf, which strict JSON cannot hold
            raise NonFiniteValueError(f"{path}: {exc}") from exc
        f.write("\n")


def _read_json(path: Path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise FileParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise FileParseError(f"{path}: byte {exc.start} is not UTF-8 text") from exc


# --- CSV tables -------------------------------------------------------------

def _csv_field(text: str) -> str:
    """One field exactly as ``csv.writer`` writes it in a row of two or more."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _text_cells(values) -> list[str]:
    cells = list(map(str, values))
    if _QUOTE_TRIGGER.search("".join(cells)):
        cells = [_csv_field(c) if _QUOTE_TRIGGER.search(c) else c for c in cells]
    return cells


def write_columns_csv(path, header, columns) -> None:
    """Write ``header`` and one row per index of the aligned ``columns``.

    An ndarray column holds floats, each written as its ``repr`` (the shortest
    decimal that reads back as the same float64); any other sequence holds
    text. Rows are formatted ``CHUNK_ROWS`` at a time, and the bytes equal
    those ``csv.writer(f, lineterminator="\\n")`` writes for the same rows.
    """
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise LengthMismatchError(f"column lengths {[len(c) for c in columns]} differ")
    with _replacing(path) as f:
        f.write(",".join(_text_cells(header)) + "\n")
        for lo in range(0, n, CHUNK_ROWS):
            cells = [
                list(map(repr, c[lo:lo + CHUNK_ROWS].tolist())) if isinstance(c, np.ndarray)
                else _text_cells(c[lo:lo + CHUNK_ROWS])
                for c in columns
            ]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _scan_rows(path: Path, data: bytes, layout) -> tuple[list[str], list]:
    """The line-by-line read: ``csv.reader`` rows and one ``float()`` per cell."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileParseError(f"{path}:{line}: byte {exc.start} is not UTF-8 text") from exc
    rows = list(csv.reader(StringIO(text, newline="")))
    if not rows:
        raise FileParseError(f"{path}:1: empty file (expected a header row)")
    header = rows[0]
    text_cols = layout(path, header)
    columns = [[] for _ in header]
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FileParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        for j, cell in enumerate(row):
            columns[j].append(cell if j in text_cols else _parse_float(cell, path, ln, header[j]))
    return header, [c if j in text_cols else _floats(c) for j, c in enumerate(columns)]


def _offsets(raw: np.ndarray, byte: int) -> np.ndarray:
    """Offsets of ``byte`` in ``raw``, searched a fixed-size block at a time."""
    return np.concatenate([np.flatnonzero(raw[b:b + _SCAN_BYTES] == byte) + b
                           for b in range(0, raw.size, _SCAN_BYTES)])


def _column_parse(path: Path, data: bytes, layout) -> tuple[list[str], list] | None:
    """Header and columns of a plain file, or None if it needs the line scan.

    The body is parsed ``CHUNK_ROWS`` lines at a time into preallocated
    columns, each chunk by one ``np.loadtxt`` over a row of str (text) and
    float64 fields, which rejects any line whose field count differs from the
    header's. Beyond ``data`` and the parsed columns only one chunk's
    temporaries are alive.
    """
    if not data or data[0] == 0x0A or b"\n\n" in data or data.translate(None, _PLAIN_BYTES):
        return None
    ends = _offsets(np.frombuffer(data, dtype=np.uint8), 0x0A)
    if data[-1] != 0x0A:
        ends = np.append(ends, len(data))  # the last line ends at the end of the file
    if int(np.diff(ends, prepend=-1).max()) > csv.field_size_limit():
        return None  # csv.reader would reject a field this long
    header = data[:ends[0]].decode("ascii").split(",")
    text_cols = layout(path, header)
    n = ends.size - 1
    row = np.dtype([(f"f{j}", object if j in text_cols else np.float64) for j in range(len(header))])
    columns = [[] if j in text_cols else np.empty(n) for j in range(len(header))]
    for lo in range(0, n, CHUNK_ROWS):
        m = min(CHUNK_ROWS, n - lo)
        stream = BytesIO(data)  # shares the bytes of data
        stream.seek(int(ends[lo]) + 1)
        with TextIOWrapper(stream, encoding="ascii") as lines:
            try:
                rows = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1,
                                  max_rows=m)
            except ValueError:
                return None
        if rows.size != m:
            return None
        for j, column in enumerate(columns):
            if j in text_cols:
                column += rows[f"f{j}"].tolist()
            else:
                column[lo:lo + m] = rows[f"f{j}"]
    return header, columns


def _read_columns_csv(path, layout) -> tuple[list[str], list]:
    """Read a CSV table as (header, columns).

    ``layout(path, header)`` checks the header, raising FileParseError, and
    returns the indices of the text columns; every other column is parsed as
    float64. Text columns come back as lists of str, float columns as arrays.
    Blank lines are skipped, and the file's values and errors are exactly
    those of a ``csv.reader`` scan with ``float()`` on every float cell.
    """
    path = Path(path)
    data = path.read_bytes()
    parsed = _column_parse(path, data, layout)
    return parsed if parsed is not None else _scan_rows(path, data, layout)


# --- dataset CSV ------------------------------------------------------------

def write_dataset_csv(
    path,
    dim: int,
    ids=(),
    features=None,
    targets=None,
    groups=None,
    true_sigma=None,
) -> None:
    """Write ``id,x0..x{d-1},y[,group][,true_sigma]`` rows."""
    ids = tuple(ids)
    header = ["id"] + [f"x{j}" for j in range(dim)] + ["y"]
    columns = [ids, *_floats(features).T, _floats(targets)] if ids else []
    if groups is not None:
        header.append("group")
        columns += [tuple(groups)] if ids else []
    if true_sigma is not None:
        header.append("true_sigma")
        columns += [_floats(true_sigma)] if ids else []
    write_columns_csv(path, header, columns)


def _dataset_layout(path: Path, header: list[str]) -> tuple[int, bool, bool]:
    """(dim, has_group, has_sigma) of a dataset header."""
    if not header or header[0] != "id":
        raise FileParseError(f"{path}:1: first column must be 'id', got {header[:1]}")
    tail = list(header[1:])
    has_sigma = bool(tail) and tail[-1] == "true_sigma"
    if has_sigma:
        tail.pop()
    has_group = bool(tail) and tail[-1] == "group"
    if has_group:
        tail.pop()
    if not tail or tail[-1] != "y":
        raise FileParseError(f"{path}:1: expected a 'y' column, got header {header}")
    xcols = tail[:-1]
    if xcols != [f"x{j}" for j in range(len(xcols))] or not xcols:
        raise FileParseError(f"{path}:1: expected feature columns x0..x{{d-1}}, got {xcols}")
    return len(xcols), has_group, has_sigma


def _dataset_text_cols(path: Path, header: list[str]) -> set[int]:
    dim, has_group, _ = _dataset_layout(path, header)
    return {0, dim + 2} if has_group else {0}


def read_dataset_csv(path) -> DatasetFile:
    header, columns = _read_columns_csv(path, _dataset_text_cols)
    dim, has_group, has_sigma = _dataset_layout(path, header)
    if not columns[0]:
        return DatasetFile(dataset=None, true_sigma=None, dim=dim)
    ds = LabeledDataset(
        ids=tuple(columns[0]),
        features=np.column_stack(columns[1:dim + 1]),
        targets=columns[dim + 1],
        groups=tuple(columns[dim + 2]) if has_group else None,
    )
    return DatasetFile(dataset=ds, true_sigma=columns[-1] if has_sigma else None, dim=dim)


# --- prediction CSV ---------------------------------------------------------

def write_predictions_csv(path, p: PredictionSet | None) -> None:
    """Write ``id,y_true,y_pred,sigma[,group]``; None writes a header only."""
    header = ["id", "y_true", "y_pred", "sigma"]
    columns = [] if p is None else [p.ids, p.y_true, p.mu, p.sigma]
    if p is not None and p.groups is not None:
        header.append("group")
        columns.append(p.groups)
    write_columns_csv(path, header, columns)


def _prediction_text_cols(path: Path, header: list[str]) -> set[int]:
    if header[:4] != ["id", "y_true", "y_pred", "sigma"]:
        raise FileParseError(f"{path}:1: expected header id,y_true,y_pred,sigma[,group], got {header}")
    has_group = len(header) == 5 and header[4] == "group"
    if len(header) > 4 and not has_group:
        raise FileParseError(f"{path}:1: unexpected trailing columns {header[4:]}")
    return {0, 4} if has_group else {0}


def read_predictions_csv(path) -> PredictionSet | None:
    header, columns = _read_columns_csv(path, _prediction_text_cols)
    if not columns[0]:
        return None
    return PredictionSet(
        ids=tuple(columns[0]), y_true=columns[1], mu=columns[2], sigma=columns[3],
        groups=tuple(columns[4]) if len(header) == 5 else None,
    )


# --- plot-ready tables ------------------------------------------------------

def write_curve_csv(path, curve) -> None:
    """``expected,observed`` rows of a calibration curve."""
    write_columns_csv(path, ["expected", "observed"],
                      [_floats(curve.expected), _floats(curve.observed)])


def write_adversarial_csv(path, adv) -> None:
    """``fraction,mean_worst_area,std_error`` rows of an adversarial sweep."""
    write_columns_csv(path, ["fraction", "mean_worst_area", "std_error"],
                      [_floats(adv.group_fractions), _floats(adv.mean_worst_area),
                       _floats(adv.std_error)])


def write_violin_csv(path, summary) -> None:
    """``value,density`` rows of a distribution summary."""
    write_columns_csv(path, ["value", "density"],
                      [_floats(summary.eval_grid), _floats(summary.densities)])


# --- model checkpoints ------------------------------------------------------

def _model_dict(m: MlpModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "layer_widths": list(m.config.layer_widths),
        "activation": m.config.activation,
        "dropout_rate": m.config.dropout_rate,
        "seed": [m.config.seed.seed, m.config.seed.stream_id],
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
    }


# closed checkpoint schemas: every key required, no other key allowed
_MODEL_FIELDS = {"format": str, "layer_widths": list, "activation": str,
                 "dropout_rate": (int, float), "seed": list, "weights": list, "biases": list}
_ENSEMBLE_FIELDS = {"format": str, "k": int, "member_training": str, "members": list}


def _check_fields(d, fields: dict, fmt_tag: str, where: str) -> None:
    """``d`` must be a JSON object of format ``fmt_tag`` with exactly ``fields``."""
    if not isinstance(d, dict):
        raise ReportSchemaError(f"{where} must be a JSON object, got {type(d).__name__}")
    if d.get("format") != fmt_tag:
        raise ReportSchemaError(f"{where}: unsupported model format {d.get('format')!r}")
    _check_keys(d, tuple(fields), where)
    for key, kind in fields.items():
        if isinstance(d[key], bool) or not isinstance(d[key], kind):
            raise ReportSchemaError(f"{where}: key {key!r} has the wrong type ({type(d[key]).__name__})")


def _is_ints(values: list) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _float_arrays(values: list, shapes: list, where: str, key: str) -> list[np.ndarray]:
    """The arrays listed under ``key``: finite numbers, one array per shape in ``shapes``."""
    out = []
    for v in values:
        try:
            a = np.asarray(v)
        except ValueError:  # ragged nesting
            a = np.empty(0, dtype=object)
        if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a)):
            raise ReportSchemaError(f"{where}: key {key!r} must hold finite numeric arrays")
        out.append(a.astype(np.float64))
    got = [a.shape for a in out]
    if got != shapes:
        raise FileParseError(f"{where}: {key} shapes {got} do not match the widths, which need {shapes}")
    return out


def _model_from_dict(d, where: str) -> MlpModel:
    _check_fields(d, _MODEL_FIELDS, MODEL_FORMAT, where)
    widths, seed = d["layer_widths"], d["seed"]
    if not _is_ints(widths):
        raise ReportSchemaError(f"{where}: key 'layer_widths' must list integers, got {widths!r}")
    if len(seed) != 2 or not _is_ints(seed) or not all(0 <= v < 2**64 for v in seed):
        raise ReportSchemaError(f"{where}: key 'seed' must hold two unsigned 64-bit integers, got {seed!r}")
    try:
        cfg = MlpConfig(
            layer_widths=tuple(widths),
            activation=d["activation"],
            dropout_rate=float(d["dropout_rate"]),
            seed=RngSeed(*seed),
        )
    except (UqError, OverflowError) as exc:
        raise ReportSchemaError(f"{where}: {exc}") from exc
    w = cfg.layer_widths
    weights = _float_arrays(d["weights"], list(zip(w[:-1], w[1:])), where, "weights")
    biases = _float_arrays(d["biases"], [(n,) for n in w[1:]], where, "biases")
    return MlpModel(weights=weights, biases=biases, config=cfg)


def save_model(path, m: MlpModel) -> None:
    write_json(Path(path), _model_dict(m))


def save_ensemble(path, members: list[MlpModel], member_training: str) -> None:
    write_json(Path(path), {
        "format": ENSEMBLE_FORMAT,
        "k": len(members),
        "member_training": member_training,
        "members": [_model_dict(m) for m in members],
    })


def load_checkpoint(path) -> MlpModel | list[MlpModel]:
    """Load a single model or an ensemble (returned as a list of models)."""
    path = Path(path)
    d = _read_json(path)
    if not (isinstance(d, dict) and d.get("format") == ENSEMBLE_FORMAT):
        return _model_from_dict(d, str(path))
    _check_fields(d, _ENSEMBLE_FIELDS, ENSEMBLE_FORMAT, str(path))
    if d["k"] != len(d["members"]):
        raise ReportSchemaError(f"{path}: key 'k' is {d['k']} but 'members' holds {len(d['members'])}")
    return [_model_from_dict(md, f"{path} members[{i}]") for i, md in enumerate(d["members"])]


# --- run manifests ----------------------------------------------------------

def manifest_path(output_path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_manifest(output_path, command: str, config: dict, inputs: list[str],
                   outputs: list[str], started: float) -> None:
    """Sidecar manifest for one output file.

    ``config`` holds the fully resolved flag-keyed configuration, so feeding
    the manifest back through ``--config`` re-runs the command bit-exactly
    (the duration field lives only here, never in data outputs).
    """
    write_json(manifest_path(output_path), {
        "format": MANIFEST_FORMAT,
        "artifact_version": f"uqregress/{__version__}",
        "command": command,
        "config": config,
        "inputs": sorted(str(s) for s in inputs),
        "outputs": sorted(str(s) for s in outputs),
        "duration_s": round(time.time() - started, 6),
    })


def read_manifest(path) -> dict:
    d = _read_json(Path(path))
    if not isinstance(d, dict):
        raise ReportSchemaError(f"{path}: manifest must be a JSON object, got {type(d).__name__}")
    if d.get("format") != MANIFEST_FORMAT:
        raise ReportSchemaError(f"{path}: unsupported manifest format {d.get('format')!r}")
    return d
