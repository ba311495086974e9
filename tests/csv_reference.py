"""Reference CSV codec: the per-cell ``csv``-module writers and readers.

This is the prediction/dataset CSV code as it stood before the column-wise
codec in ``uqregress.io``. The property tests hold the column codec to it:
same bytes written, same values read back, and the same accept/reject
decision and error text on malformed files. Its two changes since then: a
file that is not UTF-8, and a file the ``csv`` module rejects (such as a
field longer than ``csv.field_size_limit()``), raise FileParseError naming
the file and line instead of ``UnicodeDecodeError`` or ``csv.Error``, with
the same text as ``uqregress.io``; and an id or group tag holding NUL, which
a bytes column cannot keep, raises FileParseError naming the line. Records
hold their text as UTF-8 bytes, which the writers decode.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from uqregress.core import LabeledDataset, PredictionSet
from uqregress.errors import FileParseError


def fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(token: str, path: Path, line: int, col: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise FileParseError(f"{path}:{line}: column {col!r}: {token!r} is not a number") from exc


def _text(cell) -> str:
    """A record's text cell (UTF-8 bytes) as str; str passes through."""
    return cell.decode() if isinstance(cell, bytes) else cell


def _text_cell(cell: str, path: Path, line: int, col: str) -> str:
    if "\x00" in cell:
        raise FileParseError(f"{path}:{line}: column {col!r} holds a NUL character")
    return cell


def _rows(path: Path) -> list[list[str]]:
    """``csv.reader`` rows of the file read as UTF-8 text."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileParseError(f"{path}:{line}: byte {exc.start} is not UTF-8 text") from exc
    reader = csv.reader(StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise FileParseError(f"{path}:{reader.line_num}: {exc}") from exc


# --- dataset CSV ------------------------------------------------------------

@dataclass(frozen=True)
class DatasetFile:
    """Parsed dataset CSV; ``dataset`` is None for a header-only file."""

    dataset: LabeledDataset | None
    true_sigma: np.ndarray | None
    dim: int


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["id"] + [f"x{j}" for j in range(dim)] + ["y"]
    if groups is not None:
        header.append("group")
    if true_sigma is not None:
        header.append("true_sigma")
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for i, rid in enumerate(ids):
            row = [_text(rid)] + [fmt(v) for v in features[i]] + [fmt(targets[i])]
            if groups is not None:
                row.append(_text(groups[i]))
            if true_sigma is not None:
                row.append(fmt(true_sigma[i]))
            w.writerow(row)


def read_dataset_csv(path) -> DatasetFile:
    path = Path(path)
    rows = _rows(path)
    if not rows:
        raise FileParseError(f"{path}:1: empty file (expected a header row)")
    header = rows[0]
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
    dim = len(xcols)

    ids, feats, ys, groups, sigmas = [], [], [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FileParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        ids.append(_text_cell(row[0], path, ln, "id"))
        feats.append([_parse_float(row[1 + j], path, ln, f"x{j}") for j in range(dim)])
        ys.append(_parse_float(row[1 + dim], path, ln, "y"))
        pos = 2 + dim
        if has_group:
            groups.append(_text_cell(row[pos], path, ln, "group"))
            pos += 1
        if has_sigma:
            sigmas.append(_parse_float(row[pos], path, ln, "true_sigma"))
    if not ids:
        return DatasetFile(dataset=None, true_sigma=None, dim=dim)
    ds = LabeledDataset(
        ids=tuple(ids),
        features=np.asarray(feats),
        targets=np.asarray(ys),
        groups=tuple(groups) if has_group else None,
    )
    return DatasetFile(dataset=ds, true_sigma=np.asarray(sigmas) if has_sigma else None, dim=dim)


# --- prediction CSV ---------------------------------------------------------

def write_predictions_csv(path, p: PredictionSet | None) -> None:
    """Write ``id,y_true,y_pred,sigma[,group]``; None writes a header only."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    has_group = p is not None and p.groups is not None
    header = ["id", "y_true", "y_pred", "sigma"] + (["group"] if has_group else [])
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        if p is None:
            return
        for i in range(p.n):
            row = [_text(p.ids[i]), fmt(p.y_true[i]), fmt(p.mu[i]), fmt(p.sigma[i])]
            if has_group:
                row.append(_text(p.groups[i]))
            w.writerow(row)


def read_predictions_csv(path) -> PredictionSet | None:
    path = Path(path)
    rows = _rows(path)
    if not rows:
        raise FileParseError(f"{path}:1: empty file (expected a header row)")
    header = rows[0]
    if header[:4] != ["id", "y_true", "y_pred", "sigma"]:
        raise FileParseError(f"{path}:1: expected header id,y_true,y_pred,sigma[,group], got {header}")
    has_group = len(header) == 5 and header[4] == "group"
    if len(header) > 4 and not has_group:
        raise FileParseError(f"{path}:1: unexpected trailing columns {header[4:]}")
    ids, y, mu, sigma, groups = [], [], [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise FileParseError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        ids.append(_text_cell(row[0], path, ln, "id"))
        y.append(_parse_float(row[1], path, ln, "y_true"))
        mu.append(_parse_float(row[2], path, ln, "y_pred"))
        sigma.append(_parse_float(row[3], path, ln, "sigma"))
        if has_group:
            groups.append(_text_cell(row[4], path, ln, "group"))
    if not ids:
        return None
    return PredictionSet(
        ids=tuple(ids), y_true=np.asarray(y), mu=np.asarray(mu), sigma=np.asarray(sigma),
        groups=tuple(groups) if has_group else None,
    )


# --- plot-ready tables ------------------------------------------------------

def write_curve_csv(path, curve) -> None:
    """``expected,observed`` rows of a calibration curve."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["expected", "observed"])
        for e, o in zip(curve.expected, curve.observed):
            w.writerow([fmt(e), fmt(o)])


def write_adversarial_csv(path, adv) -> None:
    """``fraction,mean_worst_area,std_error`` rows of an adversarial sweep."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["fraction", "mean_worst_area", "std_error"])
        for fr, mw, se in zip(adv.group_fractions, adv.mean_worst_area, adv.std_error):
            w.writerow([fmt(fr), fmt(mw), fmt(se)])


def write_violin_csv(path, summary) -> None:
    """``value,density`` rows of a distribution summary."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["value", "density"])
        for v, d in zip(summary.eval_grid, summary.densities):
            w.writerow([fmt(v), fmt(d)])
