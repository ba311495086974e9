"""Built-in synthetic regression benchmark with known noise levels.

Features are uniform on (-3, 3)^d; the target is a fixed smooth
polynomial-plus-sine of the features plus heteroscedastic Gaussian noise
whose std depends on the first coordinate. Because the true noise std is
returned alongside the data, a perfectly calibrated PredictionSet can be
constructed exactly — the oracle behind all calibration-null tests.
"""

from __future__ import annotations

import numpy as np

from .core import DatasetFile, LabeledDataset, PredictionSet, RngSeed, check_count, check_size

NOISE_FLOOR = 0.05
NOISE_SLOPE = 0.2


def true_function(features: np.ndarray) -> np.ndarray:
    """The noiseless target surface."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    x0 = X[:, 0]
    y = np.sin(2.0 * x0) + 0.5 * x0 * x0 - 0.25 * x0
    if X.shape[1] > 1:
        y = y + 0.3 * X[:, 1:].sum(axis=1) / np.sqrt(X.shape[1] - 1)
    return y


def noise_std(features: np.ndarray) -> np.ndarray:
    """Heteroscedastic noise level: 0.05 + 0.2 * |x0|."""
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return NOISE_FLOOR + NOISE_SLOPE * np.abs(X[:, 0])


def generate_synthetic(n: int, dim: int, seed: RngSeed, n_groups: int = 0) -> DatasetFile:
    """Draw n labeled rows; optional equal-width group tags on x0.

    Deterministic for a given (n, dim, seed, n_groups).
    """
    n = check_count(n, "n")
    dim = check_count(dim, "dim", 1)
    n_groups = check_count(n_groups, "n_groups")
    check_size(n * dim, "n * dim")
    check_size(dim, "dim")  # also sizes the (0, dim) features of an empty draw
    check_size(n_groups, "n_groups")  # group bins are compared as int64
    rng = seed.generator()
    X = rng.uniform(-3.0, 3.0, size=(n, dim))
    sigma = noise_std(X)
    y = true_function(X) + sigma * rng.standard_normal(n)
    groups = None
    if n_groups > 0:
        bins = np.minimum(((X[:, 0] + 3.0) / 6.0 * n_groups).astype(int), n_groups - 1)
        groups = tuple(f"g{b}" for b in bins)
    ds = LabeledDataset(
        ids=tuple(f"r{i:06d}" for i in range(n)),
        features=X,
        targets=y,
        groups=groups,
    )
    return DatasetFile(dataset=ds, true_sigma=sigma)


def calibrated_prediction_set(data: DatasetFile) -> PredictionSet:
    """The oracle PredictionSet: mu = true surface, sigma = true noise std."""
    ds = data.dataset
    return PredictionSet(
        ids=ds.ids,
        y_true=ds.targets,
        mu=true_function(ds.features),
        sigma=data.true_sigma,
        groups=ds.groups,
    )
