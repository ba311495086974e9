"""Shared data model and the deterministic random-number contract.

Datasets and prediction sets are frozen containers of aligned numpy arrays.
All randomness in the package flows through :class:`RngSeed`, a counter-based
(seed, stream_id) pair: identical pairs give identical sequences on every
platform, and derived streams let independent consumers (ensemble members,
adversarial trials, dropout masks) draw without coordination.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    DuplicateIdError,
    KTooLargeError,
    LengthMismatchError,
    NegativeSigmaError,
    NonFiniteValueError,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # SplitMix64 after its golden-ratio add. Updates an array in place (a
    # scalar is rebound), so x must be a value the caller owns. uint64
    # arithmetic wraps mod 2**64, which is the point; callers silence numpy's
    # scalar-overflow warning.
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def _link(index) -> np.ndarray | np.uint64:
    """``mix(i + G)``: the value one index contributes to :func:`_chain`."""
    with np.errstate(over="ignore"):
        return _mix(np.asarray(index, dtype=np.uint64) + _GOLDEN)


def _chain(x: np.ndarray | np.uint64, indices, hashed: bool = False):
    """SplitMix64 hash chain from ``x``: ``x <- mix((x ^ mix(i + G)) + G)`` for
    each index ``i`` in turn (G the golden-ratio constant), a full-period
    64-bit mixer stable across platforms. Each index is hashed at its own
    shape; the chain broadcasts as it grows, so only the steps after the
    widest index run on the full shape.

    ``x`` may be the result of an earlier chain, which this one continues;
    it is not modified. With ``hashed``, the indices are already
    :func:`_link` values, so a caller can hash indices it reuses once."""
    with np.errstate(over="ignore"):
        for arr in indices:
            h = arr if hashed else _link(arr)
            x = x ^ h  # a fresh value, which _mix may overwrite
            x += _GOLDEN
            x = _mix(x)
    return x


@dataclass(frozen=True)
class RngSeed:
    """Deterministic stream identifier: (seed, stream_id), both 64-bit."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
                raise DomainError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """A fresh counter-based generator keyed by (seed, stream_id)."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def derive(self, *indices: int) -> "RngSeed":
        """A child stream for the given index path, e.g. ``seed.derive(trial)``.

        Derivation is a SplitMix64 hash chain over the stream_id, so distinct
        index paths give (with overwhelming probability) distinct streams and
        the result does not depend on evaluation order.
        """
        path = [int(ix) & 0xFFFFFFFFFFFFFFFF for ix in indices]
        return RngSeed(self.seed, int(_chain(np.uint64(self.stream_id), path)))


def counter_uniform(seed: RngSeed, *index_arrays) -> np.ndarray:
    """Stateless uniform 64-bit hashes indexed by integer coordinates.

    ``counter_uniform(seed, i, s, l, j)`` depends only on (seed, i, s, l, j),
    never on evaluation order or array layout, which makes per-(point, sample)
    dropout masks reproducible under any parallel schedule. Index arrays are
    broadcast against each other; the result is the uint64 :func:`_chain`
    hash at their broadcast shape.
    """
    return _chain(np.uint64(seed.seed), (seed.stream_id, *index_arrays))


# the most float64 values one numpy array can hold: its byte count must fit an intp
MAX_ARRAY_SIZE = np.iinfo(np.intp).max // 8


def check_size(size: int, what: str) -> int:
    """``size`` if a float64 array of that many values can exist; otherwise a
    DomainError naming ``what``, where numpy would raise a bare ValueError or
    OverflowError. Sizes below the limit may still exceed memory."""
    if size > MAX_ARRAY_SIZE:
        raise DomainError(
            f"{what} is {size}, more than the {MAX_ARRAY_SIZE} values a float64 array can hold")
    return size


def check_count(value, what: str, least: int = 0) -> int:
    """``value`` as a Python int if it is an integer (a bool is not one) of at
    least ``least``; otherwise a DomainError naming ``what``. A count that
    sizes an array is also passed through :func:`check_size`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    return int(value)


# An S column costs its widest cell on every row. Past this many bytes that is
# more than a tuple of short str ids costs (sys.getsizeof of a 7-character str
# is 56 bytes, plus an 8-byte slot), so a wider column holds bytes objects.
TEXT_WIDTH_LIMIT = 64


def _has_nul(a: np.ndarray) -> bool:
    """Whether a cell of a contiguous bytes column holds NUL. An ``S`` cell
    pads with NULs, so only a NUL run that ends inside a cell is one."""
    if a.dtype == object:
        return b"\x00" in b"".join(a.tolist())
    z = a.view(np.uint8) == 0
    ends = np.flatnonzero(z[:-1] & ~z[1:]) + 1  # offsets where a NUL run meets a byte
    return bool((ends % a.itemsize).any())


def encode_text(cells: list[str], what: str) -> np.ndarray:
    """``cells`` as a new column of UTF-8 bytes: an ``S`` array, or an object
    array of ``bytes`` when a cell is longer than TEXT_WIDTH_LIMIT bytes.

    DomainError if a cell holds NUL: an ``S`` array drops trailing NULs, so
    ``"a\\x00"`` would read back as ``"a"``.
    """
    joined = "".join(cells)
    if "\x00" in joined:
        bad = next(c for c in cells if "\x00" in c)
        raise DomainError(f"{what} {bad!r} holds a NUL character")
    try:
        data = [c.encode() for c in cells]
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise DomainError(f"{what} {exc.object!r} is not UTF-8 text") from exc
    if max(map(len, data), default=0) <= TEXT_WIDTH_LIMIT:
        return np.array(data, dtype="S")
    a = np.empty(len(data), dtype=object)
    a[:] = data
    return a


def _decode(cell: bytes, what: str) -> str:
    try:
        return cell.decode()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} {cell!r} is not UTF-8 text") from exc


def _check_bytes(a: np.ndarray, what: str) -> None:
    """DomainError unless every cell of a contiguous bytes column is UTF-8
    text without NUL. Only cells with a byte past ASCII are decoded."""
    if _has_nul(a):
        bad = next(c for c in a.tolist() if b"\x00" in c)
        raise DomainError(f"{what} {bad.decode(errors='replace')!r} holds a NUL character")
    if a.dtype == object:
        wide = [c for c in a.tolist() if not c.isascii()]
    elif a.size and a.view(np.uint8).max() >= 0x80:
        wide = a[(a.view(np.uint8).reshape(a.size, -1) >= 0x80).any(axis=1)].tolist()
    else:
        return
    for c in wide:
        _decode(c, what)


def _owns_frozen(a: np.ndarray) -> bool:
    """Whether ``a`` is read-only and contiguous, and owns its data or views
    a read-only array, so that a text column may share it: a read-only view
    of a writable array is copied, since the caller may still write to it."""
    base = a.base
    return (not a.flags.writeable and a.flags.c_contiguous
            and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable))


def text_column(values, what: str) -> np.ndarray:
    """``values`` as a read-only column of UTF-8 bytes (see :func:`encode_text`).

    A 1-D ``S`` array, or a 1-D object array of ``bytes``, is taken as UTF-8
    (DomainError if it is not, or holds NUL), and shared when
    :func:`_owns_frozen` holds. Any other sequence is taken item by item: a
    ``bytes`` item as UTF-8 text, anything else through ``str()``.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and (
            values.dtype.kind == "S" or values.dtype == object
            and all(type(v) is bytes for v in values.tolist())):
        a = values if _owns_frozen(values) else values.copy()
        _check_bytes(a, what)
    else:
        a = encode_text([_decode(v, what) if isinstance(v, bytes) else str(v) for v in values],
                        what)
    a.flags.writeable = False
    return a


def _check_finite(ids: np.ndarray, name: str, values: np.ndarray, unit: str) -> None:
    """NonFiniteValueError naming the row (``unit`` 'row' or 'index') that
    holds the first non-finite value of ``values``, one row per id."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad)) // (bad.size // len(bad))  # row of the first, row-major
        raise NonFiniteValueError(f"non-finite {name} at {unit} {i} (id={ids[i].decode()!r})")


def _id_hashes(ids: np.ndarray) -> np.ndarray:
    """One uint64 per cell of an ``S`` column: its bytes, NUL-padded to whole
    8-byte words, chained through SplitMix64 as ``h <- mix((h ^ word) + G)``."""
    n, width = ids.size, ids.itemsize
    padded = np.zeros((n, -(-max(width, 1) // 8) * 8), dtype=np.uint8)
    padded[:, :width] = ids.view(np.uint8).reshape(n, width)
    words = padded.view(np.uint64)
    h = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for word in words.T:
            h ^= word
            h += _GOLDEN
            _mix(h)
    return h


def _check_unique(ids: np.ndarray, unit: str) -> None:
    """DuplicateIdError naming the first id seen twice and its row.

    An ``S`` column is hashed and the hashes sorted; only the rows whose
    hashes tie are compared as ids. NULs are refused and cells NUL-padded, so
    equal words mean equal ids. An object column (wide ids) uses a set.
    """
    if ids.dtype == object:
        if len(set(ids.tolist())) == ids.size:
            return
        rows = np.arange(ids.size)
    else:
        h = _id_hashes(ids)
        s = np.sort(h)
        ties = s[1:][s[1:] == s[:-1]]
        if not ties.size:
            return
        rows = np.flatnonzero(np.isin(h, ties))  # every row that may repeat an id, in row order
    seen: set[bytes] = set()
    for i, rid in zip(rows.tolist(), ids[rows].tolist()):
        if rid in seen:
            raise DuplicateIdError(f"duplicate id {rid.decode()!r} at {unit} {i}")
        seen.add(rid)


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


class _Rows:
    """Row access shared by the two row records: read-only ``ids`` and
    optional ``groups`` text columns (see :func:`text_column`) and the array
    columns each record names in ``_columns``."""

    _columns: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    def subset(self, indices):
        """Row subset (preserving the given order), through the record's own constructor."""
        idx = np.asarray(indices, dtype=np.intp)
        return type(self)(**{name: None if (c := getattr(self, name)) is None else c[idx]
                             for name in self._columns})

    def _set_text(self) -> None:
        object.__setattr__(self, "ids", text_column(self.ids, "id"))
        if self.groups is not None:
            object.__setattr__(self, "groups", text_column(self.groups, "group tag"))


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class LabeledDataset(_Rows):
    """Feature matrix + scalar targets (+ optional categorical group tags).

    Invariants are enforced at construction: any number of rows (zero rows
    is a (0, d) table), constant feature dimension d >= 1, all values finite,
    ids unique. Targets are nominally in eV; no unit arithmetic is performed.
    """

    ids: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    groups: np.ndarray | None = None
    _columns = ("ids", "features", "targets", "groups")

    def __post_init__(self) -> None:
        self._set_text()
        object.__setattr__(self, "features", _freeze(np.atleast_2d(self.features)))
        object.__setattr__(self, "targets", _freeze(np.ravel(self.targets)))
        n = len(self.ids)
        if self.features.shape[0] != n or self.targets.shape[0] != n:
            raise LengthMismatchError(
                f"ids({n}), features({self.features.shape[0]}), targets({self.targets.shape[0]}) disagree"
            )
        if self.groups is not None and len(self.groups) != n:
            raise LengthMismatchError(f"groups({len(self.groups)}) != ids({n})")
        if self.features.shape[1] < 1:
            raise DomainError("feature dimension must be >= 1")
        _check_finite(self.ids, "feature", self.features, "row")
        _check_finite(self.ids, "target", self.targets, "row")
        _check_unique(self.ids, "row")

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True)
class DatasetFile:
    """A dataset and, where known, each row's true noise std. A file with no
    rows holds a zero-row dataset, whose (0, d) features keep its dimension."""

    dataset: LabeledDataset
    true_sigma: np.ndarray | None


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class PredictionSet(_Rows):
    """Aligned (y_true, mu, sigma) triple that every UQ metric consumes.

    Construction only coerces dtypes; run :func:`validate_prediction_set` to
    enforce the invariants (so that validation failures are testable).
    """

    ids: np.ndarray
    y_true: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    groups: np.ndarray | None = None
    _columns = ("ids", "y_true", "mu", "sigma", "groups")

    def __post_init__(self) -> None:
        self._set_text()
        for name in ("y_true", "mu", "sigma"):
            object.__setattr__(self, name, _freeze(np.ravel(getattr(self, name))))

    def with_sigma(self, sigma) -> "PredictionSet":
        """This set with ``sigma`` replaced; the other columns are shared, not copied."""
        p = copy.copy(self)
        object.__setattr__(p, "sigma", _freeze(np.ravel(sigma)))
        return p


def validate_prediction_set(p: PredictionSet) -> PredictionSet:
    """Check all PredictionSet invariants; return ``p`` unchanged if they hold.

    Raises LengthMismatchError / NonFiniteValueError / NegativeSigmaError /
    DuplicateIdError, each naming the first offending index.
    """
    n = len(p.ids)
    for name in ("y_true", "mu", "sigma"):
        m = getattr(p, name).shape[0]
        if m != n:
            raise LengthMismatchError(f"{name} has length {m}, expected {n}")
    if p.groups is not None and len(p.groups) != n:
        raise LengthMismatchError(f"groups has length {len(p.groups)}, expected {n}")
    for name in ("y_true", "mu", "sigma"):
        _check_finite(p.ids, name, getattr(p, name), "index")
    neg = p.sigma < 0.0
    if neg.any():
        i = int(np.argmax(neg))
        raise NegativeSigmaError(f"sigma={p.sigma[i]} at index {i} (id={p.ids[i].decode()!r})")
    _check_unique(p.ids, "index")
    return p


def fold_rows(n: int, k: int, seed: RngSeed) -> list[np.ndarray]:
    """The row indices of :func:`split_k_folds`' folds of an ``n``-row table."""
    if check_count(k, "k", 2) > n:
        raise KTooLargeError(f"k={k} folds but only {n} rows")
    return np.array_split(seed.generator().permutation(n), k)


def split_k_folds(d: LabeledDataset, k: int, seed: RngSeed) -> list[LabeledDataset]:
    """Partition ``d`` into k disjoint folds by a seeded uniform shuffle.

    Fold sizes differ by at most one (the first ``n % k`` folds get the extra
    row). Same (dataset, k, seed) always yields the same folds.
    """
    return [d.subset(rows) for rows in fold_rows(d.n, k, seed)]
