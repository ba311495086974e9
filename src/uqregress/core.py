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
_S30, _S27, _S31, _S11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)


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


def _chain(x: np.ndarray | np.uint64, indices, out: np.ndarray | None = None):
    """SplitMix64 hash chain from ``x``: ``x <- mix((x ^ mix(i + G)) + G)`` for
    each index ``i`` in turn (G the golden-ratio constant), a full-period
    64-bit mixer stable across platforms. Each index is hashed at its own
    shape; the chain broadcasts as it grows, so only the steps after the
    widest index run on the full shape. A C-contiguous float64 ``out`` of the
    final shape receives the last step's bits in place of a fresh array."""
    with np.errstate(over="ignore"):
        for k, arr in enumerate(indices):
            # the xor returns a fresh value (or fills out), which _mix may overwrite
            h = _mix(np.asarray(arr, dtype=np.uint64) + _GOLDEN)
            last = out is not None and k == len(indices) - 1
            x = np.bitwise_xor(x, h, out=out.view(np.uint64) if last else None)
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


def counter_uniform(seed: RngSeed, *index_arrays, out: np.ndarray | None = None) -> np.ndarray:
    """Stateless uniforms in [0, 1) indexed by integer coordinates.

    ``counter_uniform(seed, i, s, l, j)`` depends only on (seed, i, s, l, j),
    never on evaluation order or array layout, which makes per-(point, sample)
    dropout masks reproducible under any parallel schedule. Index arrays are
    broadcast against each other; the result has their broadcast shape. A
    C-contiguous float64 ``out`` of that shape receives the uniforms in place
    of a fresh array, so a caller drawing many times can reuse one buffer.
    """
    x = _chain(np.uint64(seed.seed), (seed.stream_id, *index_arrays), out)
    x >>= _S11
    if not isinstance(x, np.ndarray):
        return np.float64(x) * 2.0**-53
    # convert the chain's own array in place: a second full-shape array costs
    # an allocation, and page faults each time the heap gives it back
    return np.multiply(x, 2.0**-53, out=x.view(np.float64) if out is None else out)


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


def _check_finite(ids: tuple[str, ...], name: str, values: np.ndarray, unit: str) -> None:
    """NonFiniteValueError naming the row (``unit`` 'row' or 'index') that
    holds the first non-finite value of ``values``, one row per id."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad)) // (bad.size // len(bad))  # row of the first, row-major
        raise NonFiniteValueError(f"non-finite {name} at {unit} {i} (id={ids[i]!r})")


def _check_unique(ids: tuple[str, ...], unit: str) -> None:
    """DuplicateIdError naming the first id seen twice and its row."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for i, rid in enumerate(ids):
            if rid in seen:
                raise DuplicateIdError(f"duplicate id {rid!r} at {unit} {i}")
            seen.add(rid)


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


def take(seq, rows):
    """The entries of ``seq`` at ``rows`` (Python ints), as a tuple; None stays None."""
    return None if seq is None else tuple(map(seq.__getitem__, rows))


class _Rows:
    """Row access shared by the two row records: an ``ids`` tuple, an optional
    ``groups`` tuple and the array columns each record names in ``_columns``."""

    _columns: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    def subset(self, indices):
        """Row subset (preserving the given order), through the record's own constructor."""
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        columns = {name: getattr(self, name)[idx] for name in self._columns}
        return type(self)(ids=take(self.ids, rows), groups=take(self.groups, rows), **columns)


@dataclass(frozen=True)
class LabeledDataset(_Rows):
    """Feature matrix + scalar targets (+ optional categorical group tags).

    Invariants are enforced at construction: any number of rows (zero rows
    is a (0, d) table), constant feature dimension d >= 1, all values finite,
    ids unique. Targets are nominally in eV; no unit arithmetic is performed.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray
    groups: tuple[str, ...] | None = None
    _columns = ("features", "targets")

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(map(str, self.ids)))
        object.__setattr__(self, "features", _freeze(np.atleast_2d(self.features)))
        object.__setattr__(self, "targets", _freeze(np.ravel(self.targets)))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(map(str, self.groups)))
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


@dataclass(frozen=True)
class PredictionSet(_Rows):
    """Aligned (y_true, mu, sigma) triple that every UQ metric consumes.

    Construction only coerces dtypes; run :func:`validate_prediction_set` to
    enforce the invariants (so that validation failures are testable).
    """

    ids: tuple[str, ...]
    y_true: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    groups: tuple[str, ...] | None = None
    _columns = ("y_true", "mu", "sigma")

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(map(str, self.ids)))
        for name in ("y_true", "mu", "sigma"):
            object.__setattr__(self, name, _freeze(np.ravel(getattr(self, name))))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(map(str, self.groups)))

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
        raise NegativeSigmaError(f"sigma={p.sigma[i]} at index {i} (id={p.ids[i]!r})")
    _check_unique(p.ids, "index")
    return p


def split_k_folds(d: LabeledDataset, k: int, seed: RngSeed) -> list[LabeledDataset]:
    """Partition ``d`` into k disjoint folds by a seeded uniform shuffle.

    Fold sizes differ by at most one (the first ``n % k`` folds get the extra
    row). Same (dataset, k, seed) always yields the same folds.
    """
    if check_count(k, "k", 2) > d.n:
        raise KTooLargeError(f"k={k} folds but only {d.n} rows")
    perm = seed.generator().permutation(d.n)
    return [d.subset(rows) for rows in np.array_split(perm, k)]
