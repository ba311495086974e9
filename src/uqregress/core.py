"""Shared data model and the deterministic random-number contract.

Datasets and prediction sets are frozen containers of aligned numpy arrays.
All randomness in the package flows through :class:`RngSeed`, a counter-based
(seed, stream_id) pair: identical pairs give identical sequences on every
platform, and derived streams let independent consumers (ensemble members,
adversarial trials, dropout masks) draw without coordination.
"""

from __future__ import annotations

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


def _splitmix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # SplitMix64 finalizer: a full-period 64-bit mixer, stable across platforms.
    # The add makes a fresh value, so the caller's x is never written.
    with np.errstate(over="ignore"):
        return _mix(x + _GOLDEN)


@dataclass(frozen=True)
class RngSeed:
    """Deterministic stream identifier: (seed, stream_id), both 64-bit."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) < 2**64:
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
        s = np.uint64(self.stream_id)
        for ix in indices:
            s = _splitmix64(s ^ _splitmix64(np.uint64(int(ix) & 0xFFFFFFFFFFFFFFFF)))
        return RngSeed(self.seed, int(s))


def counter_uniform(seed: RngSeed, *index_arrays, out: np.ndarray | None = None) -> np.ndarray:
    """Stateless uniforms in [0, 1) indexed by integer coordinates.

    ``counter_uniform(seed, i, s, l, j)`` depends only on (seed, i, s, l, j),
    never on evaluation order or array layout, which makes per-(point, sample)
    dropout masks reproducible under any parallel schedule. Index arrays are
    broadcast against each other; the result has their broadcast shape. A
    C-contiguous float64 ``out`` of that shape receives the uniforms in place
    of a fresh array, so a caller drawing many times can reuse one buffer.
    """
    x = np.uint64(seed.seed)
    indices = (seed.stream_id, *index_arrays)
    with np.errstate(over="ignore"):
        for k, arr in enumerate(indices):
            # hash each index at its own shape; the chain broadcasts as it grows,
            # so only the steps after the widest index run on the full shape.
            # The xor returns a fresh value (or fills out), which _mix may overwrite.
            h = _mix(np.asarray(arr, dtype=np.uint64) + _GOLDEN)
            last = out is not None and k == len(indices) - 1
            x = np.bitwise_xor(x, h, out=out.view(np.uint64) if last else None)
            x += _GOLDEN
            x = _mix(x)
        x >>= _S11
    if not isinstance(x, np.ndarray):
        return np.float64(x) * 2.0**-53
    # convert the chain's own array in place: a second full-shape array costs
    # an allocation, and page faults each time the heap gives it back
    return np.multiply(x, 2.0**-53, out=x.view(np.float64) if out is None else out)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix + scalar targets (+ optional categorical group tags).

    Invariants are enforced at construction: N >= 1 rows, constant feature
    dimension d >= 1, all values finite, ids unique. Targets are nominally in
    eV; no unit arithmetic is performed anywhere.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray
    groups: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(map(str, self.ids)))
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            feats = np.atleast_2d(feats)
        object.__setattr__(self, "features", _freeze(feats))
        object.__setattr__(self, "targets", _freeze(np.asarray(self.targets, dtype=np.float64).ravel()))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(map(str, self.groups)))
        n = len(self.ids)
        if n < 1:
            raise DomainError("LabeledDataset needs at least one row")
        if self.features.shape[0] != n or self.targets.shape[0] != n:
            raise LengthMismatchError(
                f"ids({n}), features({self.features.shape[0]}), targets({self.targets.shape[0]}) disagree"
            )
        if self.groups is not None and len(self.groups) != n:
            raise LengthMismatchError(f"groups({len(self.groups)}) != ids({n})")
        if self.features.shape[1] < 1:
            raise DomainError("feature dimension must be >= 1")
        if not np.all(np.isfinite(self.features)):
            i = int(np.argwhere(~np.isfinite(self.features))[0][0])
            raise NonFiniteValueError(f"non-finite feature at row {i} (id={self.ids[i]!r})")
        if not np.all(np.isfinite(self.targets)):
            i = int(np.argwhere(~np.isfinite(self.targets))[0][0])
            raise NonFiniteValueError(f"non-finite target at row {i} (id={self.ids[i]!r})")
        if len(set(self.ids)) != n:
            seen: set[str] = set()
            for i, rid in enumerate(self.ids):
                if rid in seen:
                    raise DuplicateIdError(f"duplicate id {rid!r} at row {i}")
                seen.add(rid)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices) -> "LabeledDataset":
        """Row subset (preserving the given order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            ids=tuple(self.ids[i] for i in idx),
            features=self.features[idx],
            targets=self.targets[idx],
            groups=None if self.groups is None else tuple(self.groups[i] for i in idx),
        )


@dataclass(frozen=True)
class PredictionSet:
    """Aligned (y_true, mu, sigma) triple that every UQ metric consumes.

    Construction only coerces dtypes; run :func:`validate_prediction_set` to
    enforce the invariants (so that validation failures are testable).
    """

    ids: tuple[str, ...]
    y_true: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    groups: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(map(str, self.ids)))
        for name in ("y_true", "mu", "sigma"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=np.float64).ravel()))
        if self.groups is not None:
            object.__setattr__(self, "groups", tuple(map(str, self.groups)))

    @property
    def n(self) -> int:
        return len(self.ids)

    def with_sigma(self, sigma) -> "PredictionSet":
        return PredictionSet(self.ids, self.y_true, self.mu, sigma, self.groups)

    def subset(self, indices) -> "PredictionSet":
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        return PredictionSet(
            ids=tuple(map(self.ids.__getitem__, rows)),
            y_true=self.y_true[idx],
            mu=self.mu[idx],
            sigma=self.sigma[idx],
            groups=None if self.groups is None else tuple(map(self.groups.__getitem__, rows)),
        )


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
        arr = getattr(p, name)
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise NonFiniteValueError(f"non-finite {name} at index {i} (id={p.ids[i]!r})")
    neg = p.sigma < 0.0
    if neg.any():
        i = int(np.argmax(neg))
        raise NegativeSigmaError(f"sigma={p.sigma[i]} at index {i} (id={p.ids[i]!r})")
    if len(set(p.ids)) != n:
        seen: set[str] = set()
        for i, rid in enumerate(p.ids):
            if rid in seen:
                raise DuplicateIdError(f"duplicate id {rid!r} at index {i}")
            seen.add(rid)
    return p


def split_k_folds(d: LabeledDataset, k: int, seed: RngSeed) -> list[LabeledDataset]:
    """Partition ``d`` into k disjoint folds by a seeded uniform shuffle.

    Fold sizes differ by at most one (the first ``n % k`` folds get the extra
    row). Same (dataset, k, seed) always yields the same folds.
    """
    if k > d.n:
        raise KTooLargeError(f"k={k} folds but only {d.n} rows")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    perm = seed.generator().permutation(d.n)
    base, extra = divmod(d.n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(d.subset(perm[start : start + size]))
        start += size
    return folds
