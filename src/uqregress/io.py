"""File formats: dataset/prediction/curve CSVs, model checkpoints, manifests.

All floats are written with shortest round-trip decimal formatting (repr), so
a write/read cycle reproduces every value bit-exactly and re-running a
command yields byte-identical files. ``write_manifest`` writes the sidecar
``<file>.manifest.json`` that records the command and resolved configuration
behind a file; the CLI calls it once per output after the command succeeds.

CSV tables are written and read a column at a time, ``CHUNK_ROWS`` rows at a
time, so a read holds about the file's bytes plus the parsed columns. Text
cells (ids, group tags) are read into read-only columns of UTF-8 bytes (see
``core.text_column``) and are written quoted exactly as ``csv.writer`` quotes
them. A file that is not plain (printable ASCII lines, no quotes, no blank
lines), or that the column parse rejects in any chunk, is read again line by
line with the ``csv`` module, and that scan alone decides what the file holds
or which error it raises. A table without rows is a zero-row record, written
and read back as its header alone. Every file is written to a sibling temp
file that then replaces the target, so a failed write leaves the target as it
was.
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
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .core import (TEXT_WIDTH_LIMIT, DatasetFile, LabeledDataset, PredictionSet, RngSeed,
                   encode_text, text_column)
from .errors import (FileParseError, LengthMismatchError, NonFiniteValueError, ReportSchemaError,
                     UqError, _check_keys)

if TYPE_CHECKING:
    from .neural import MlpModel

MODEL_FORMAT = "uqregress-model-v1"
ENSEMBLE_FORMAT = "uqregress-ensemble-v1"
MANIFEST_FORMAT = "uqregress-manifest-v1"

CHUNK_ROWS = 16384  # CSV rows formatted per write and parsed per read
_SCAN_BYTES = 1 << 20  # bytes checked at a time for a newline or a byte a plain file lacks
# characters that can make csv.writer quote a field; such fields go through csv itself
_QUOTE_TRIGGER = re.compile('[,"\r\n\x00]')
# the bytes a plain CSV file may hold: printable ASCII except '"', and '\n'
_PLAIN_BYTES = bytes(c for c in range(0x20, 0x7F) if c != 0x22) + b"\n"
TEXT_COLUMNS = frozenset({"id", "group"})  # read as UTF-8 bytes; every other column is float64
PREDICTION_HEADER = ("id", "y_true", "y_pred", "sigma")  # then an optional "group"


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
    except RecursionError as exc:
        raise FileParseError(f"{path}: JSON nested too deeply to read") from exc
    except ValueError as exc:  # an integer too long for int(), e.g. 5,000 digits
        raise FileParseError(f"{path}: {str(exc).split(';')[0]}") from exc  # less the sys.* hint


# --- CSV tables -------------------------------------------------------------

def _csv_field(text: str) -> str:
    """One field exactly as ``csv.writer`` writes it in a row of two or more."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _text_cells(values) -> list[str]:
    if isinstance(values, np.ndarray):  # an S or object column of UTF-8 bytes
        cells = [c.decode() for c in values]  # no list of bytes objects beside the str
    else:
        cells = list(map(str, values))
    if _QUOTE_TRIGGER.search("".join(cells)):
        cells = [_csv_field(c) if _QUOTE_TRIGGER.search(c) else c for c in cells]
    return cells


def write_columns_csv(path, header, columns) -> None:
    """Write ``header`` and one row per index of the aligned ``columns``.

    A numeric ndarray column is written as each value's ``repr`` (for a
    float, the shortest decimal that reads back as the same float64). An
    ``S`` or object ndarray is a text column of UTF-8 bytes (see
    ``core.text_column``), and any other sequence holds text as ``str()``
    gives it. Rows are formatted ``CHUNK_ROWS`` at a time, and the bytes equal
    those ``csv.writer(f, lineterminator="\\n")`` writes for the same rows.
    """
    if len(header) != len(columns):
        raise LengthMismatchError(f"{len(header)} header names for {len(columns)} columns")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise LengthMismatchError(f"column lengths {[len(c) for c in columns]} differ")
    with _replacing(path) as f:
        f.write(",".join(_text_cells(header)) + "\n")
        for lo in range(0, n, CHUNK_ROWS):
            cells = [
                list(map(repr, c[lo:lo + CHUNK_ROWS].tolist()))
                if isinstance(c, np.ndarray) and c.dtype.kind not in "SO"
                else _text_cells(c[lo:lo + CHUNK_ROWS])
                for c in columns
            ]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _scan_rows(path: Path, data: bytes, check) -> dict:
    """The line-by-line read: ``csv.reader`` rows and one ``float()`` per cell."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileParseError(f"{path}:{line}: byte {exc.start} is not UTF-8 text") from exc
    reader = csv.reader(StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise FileParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise FileParseError(f"{path}:1: empty file (expected a header row)")
    header = rows[0]
    check(path, header)
    columns = [[] for _ in header]
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FileParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        for name, cell, column in zip(header, row, columns):
            if name not in TEXT_COLUMNS:
                cell = _parse_float(cell, path, ln, name)
            elif "\x00" in cell:  # a bytes column would drop it at a cell's end
                raise FileParseError(f"{path}:{ln}: column {name!r} holds a NUL character")
            column.append(cell)
    return {name: text_column(c, name) if name in TEXT_COLUMNS else _floats(c)
            for name, c in zip(header, columns)}


def _offsets(raw: np.ndarray, byte: int) -> np.ndarray:
    """Offsets of ``byte`` in ``raw``, searched a fixed-size block at a time."""
    return np.concatenate([np.flatnonzero(raw[b:b + _SCAN_BYTES] == byte) + b
                           for b in range(0, raw.size, _SCAN_BYTES)])


def _chunk_rows(data: bytes, start: int, m: int, row: np.dtype) -> np.ndarray | None:
    """``m`` lines of ``data`` from offset ``start`` as one ``np.loadtxt`` record
    per line, or None if a line does not parse as ``row``."""
    stream = BytesIO(data)  # shares the bytes of data
    stream.seek(start)
    with TextIOWrapper(stream, encoding="ascii") as lines:
        try:
            rows = np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1, max_rows=m)
        except ValueError:
            return None
    return rows if rows.size == m else None


def _column_parse(path: Path, data: bytes, check) -> dict | None:
    """The columns of a plain file, or None if it needs the line scan.

    The body is parsed ``CHUNK_ROWS`` lines at a time into preallocated
    columns, each chunk by one ``np.loadtxt`` over a row of float64 fields
    and, for text, fixed-width bytes fields one byte wider than
    TEXT_WIDTH_LIMIT; it rejects any line whose field count differs from the
    header's. A chunk with a text cell that fills its field may hold a longer
    one, which the field cut, so that chunk is parsed again with str text
    fields. Beyond ``data`` and the parsed columns only one chunk's
    temporaries are alive.
    """
    if not data or data[0] == 0x0A or b"\n\n" in data or any(
            data[b:b + _SCAN_BYTES].translate(None, _PLAIN_BYTES)  # a block at a time
            for b in range(0, len(data), _SCAN_BYTES)):
        return None
    ends = _offsets(np.frombuffer(data, dtype=np.uint8), 0x0A)
    if data[-1] != 0x0A:
        ends = np.append(ends, len(data))  # the last line ends at the end of the file
    if int(np.diff(ends, prepend=-1).max()) > csv.field_size_limit():
        return None  # csv.reader would reject a field this long
    header = data[:ends[0]].decode("ascii").split(",")
    check(path, header)
    n = ends.size - 1
    text = TEXT_COLUMNS.intersection(header)
    fixed, loose = (np.dtype([(name, cell if name in text else np.float64) for name in header])
                    for cell in (f"S{TEXT_WIDTH_LIMIT + 1}", object))
    columns = {name: [encode_text([], name)] if name in text else np.empty(n)
               for name in header}  # a text column is a list of chunk arrays until the end
    for lo in range(0, n, CHUNK_ROWS):
        m = min(CHUNK_ROWS, n - lo)
        start = int(ends[lo]) + 1
        rows = _chunk_rows(data, start, m, fixed)
        if rows is None:
            return None
        widths = {name: int(np.strings.str_len(rows[name]).max()) for name in text}
        if any(w > TEXT_WIDTH_LIMIT for w in widths.values()):
            rows = _chunk_rows(data, start, m, loose)
            if rows is None:
                return None
        for name, column in columns.items():
            if name not in text:
                column[lo:lo + m] = rows[name]
            elif rows.dtype == loose:
                column.append(encode_text(rows[name].tolist(), name))
            else:  # ASCII without NUL, as encode_text would store it
                column.append(rows[name].astype(f"S{max(widths[name], 1)}"))
    for name in text:
        columns[name] = np.concatenate(columns[name])  # as wide as its widest chunk
        columns[name].flags.writeable = False
    return columns


def _read_columns_csv(path, check) -> dict:
    """Read a CSV table as ``{column name: column}``, in header order.

    ``check(path, header)`` validates the header, raising FileParseError
    before any row is read. The columns named in ``TEXT_COLUMNS`` come back
    as read-only columns of UTF-8 bytes, every other column as a float64
    array. A NUL in a text cell is refused with FileParseError. Blank lines are
    skipped, and the file's values and errors are exactly those of a
    ``csv.reader`` scan with ``float()`` on every float cell.
    """
    path = Path(path)
    data = path.read_bytes()
    parsed = _column_parse(path, data, check)
    return parsed if parsed is not None else _scan_rows(path, data, check)


# --- dataset CSV ------------------------------------------------------------

def write_dataset_csv(path, ids, features, targets, groups=None, true_sigma=None) -> None:
    """Write ``id,x0..x{d-1},y[,group][,true_sigma]``; no rows writes the header only.

    d is the width of the 2-D ``features``, so a (0, d) table keeps its d columns.
    """
    features = _floats(features)
    header = ["id"] + [f"x{j}" for j in range(features.shape[1])] + ["y"]
    columns = [text_column(ids, "id"), *features.T, _floats(targets)]
    if groups is not None:
        header.append("group")
        columns.append(text_column(groups, "group tag"))
    if true_sigma is not None:
        header.append("true_sigma")
        columns.append(_floats(true_sigma))
    write_columns_csv(path, header, columns)


def _check_dataset_header(path: Path, header: list[str]) -> None:
    if not header or header[0] != "id":
        raise FileParseError(f"{path}:1: first column must be 'id', got {header[:1]}")
    tail = header[1:]
    for optional in ("true_sigma", "group"):  # the trailing columns, last first
        if tail[-1:] == [optional]:
            tail = tail[:-1]
    if not tail or tail[-1] != "y":
        raise FileParseError(f"{path}:1: expected a 'y' column, got header {header}")
    xcols = tail[:-1]
    if xcols != [f"x{j}" for j in range(len(xcols))] or not xcols:
        raise FileParseError(f"{path}:1: expected feature columns x0..x{{d-1}}, got {xcols}")


def read_dataset_csv(path) -> DatasetFile:
    c = _read_columns_csv(path, _check_dataset_header)
    ds = LabeledDataset(
        ids=c["id"],
        features=np.column_stack([v for name, v in c.items() if name.startswith("x")]),  # x0..x{d-1}
        targets=c["y"],
        groups=c.get("group"),
    )
    return DatasetFile(dataset=ds, true_sigma=c.get("true_sigma"))


# --- prediction CSV ---------------------------------------------------------

def write_predictions_csv(path, p: PredictionSet) -> None:
    """Write ``id,y_true,y_pred,sigma[,group]``; no rows writes the header only."""
    header = list(PREDICTION_HEADER)
    columns = [p.ids, p.y_true, p.mu, p.sigma]
    if p.groups is not None:
        header.append("group")
        columns.append(p.groups)
    write_columns_csv(path, header, columns)


def _check_prediction_header(path: Path, header: list[str]) -> None:
    if tuple(header[:4]) != PREDICTION_HEADER:
        raise FileParseError(f"{path}:1: expected header id,y_true,y_pred,sigma[,group], got {header}")
    if header[4:] not in ([], ["group"]):
        raise FileParseError(f"{path}:1: unexpected trailing columns {header[4:]}")


def read_predictions_csv(path) -> PredictionSet:
    c = _read_columns_csv(path, _check_prediction_header)
    return PredictionSet(ids=c["id"], y_true=c["y_true"], mu=c["y_pred"], sigma=c["sigma"],
                         groups=c.get("group"))


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
        out.append(a)
    got = [a.shape for a in out]
    if got != shapes:
        raise FileParseError(f"{where}: {key} shapes {got} do not match the widths, which need {shapes}")
    return out


def _model_from_dict(d, where: str) -> MlpModel:
    from .neural import MlpConfig, MlpModel  # only a checkpoint read needs the network code

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
    m = MlpModel(cfg)  # sized by the widths only now that the arrays' shapes match them
    for view, a in zip(m.weights + m.biases, weights + biases):
        view[...] = a
    return m


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
