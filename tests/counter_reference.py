"""Reference dropout-mask counter: SplitMix64 as it stood before hashing each
index at its own shape, a pure-Python-int SplitMix64, and an MC-dropout pass
loop built on the old counter with 16-bit lane masks in shift form.

``uqregress.core.counter_uniform`` must equal ``counter_bits`` here bit for
bit, and ``mc_dropout_predict`` must equal ``mc_dropout_reference``.
"""

from __future__ import annotations

import numpy as np

from uqregress.core import RngSeed
from uqregress.neural import _ACTIVATIONS, MlpModel

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
M64 = 2**64 - 1


def _splitmix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        return x ^ (x >> np.uint64(31))


def counter_bits(seed: RngSeed, *index_arrays) -> np.ndarray:
    """Broadcast every index to the full shape first, then hash."""
    shaped = np.broadcast_arrays(*[np.asarray(a, dtype=np.uint64) for a in index_arrays])
    x = _splitmix64(np.uint64(seed.seed) ^ _splitmix64(np.uint64(seed.stream_id)))
    for arr in shaped:
        x = _splitmix64(x ^ _splitmix64(arr))
    return x


def lane_mask(seed: RngSeed, rate: float, *index_arrays, width: int) -> np.ndarray:
    """Inverted-dropout mask of ``width`` units keyed by (*index_arrays, unit):
    unit j reads bits 16·(j % 4) .. 16·(j % 4) + 15 of the hash of
    (*index_arrays, j // 4), is kept when they are >= t = round(rate · 65536),
    and is then scaled by 65536 / (65536 - t)."""
    t = round(rate * 65536)
    j = np.arange(width, dtype=np.uint64)
    h = counter_bits(seed, *index_arrays, j // np.uint64(4))
    lanes = (h >> (np.uint64(16) * (j % np.uint64(4)))) & np.uint64(0xFFFF)
    return (lanes >= t).astype(np.float64) * (65536 / (65536 - t))


def splitmix64_int(x: int) -> int:
    """SplitMix64 on Python ints, reduced mod 2**64 after each step."""
    x = (x + 0x9E3779B97F4A7C15) & M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def counter_bits_int(seed: RngSeed, *indices: int) -> int:
    """One counter hash from Python-int indices."""
    x = splitmix64_int(seed.seed ^ splitmix64_int(seed.stream_id))
    for ix in indices:
        x = splitmix64_int(x ^ splitmix64_int(ix))
    return x


def mc_dropout_reference(m: MlpModel, X: np.ndarray, rate: float, seed: RngSeed,
                         samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma) of ``samples`` dropout passes with lane masks from the old
    counter, one counter call per layer."""
    act, _ = _ACTIVATIONS[m.config.activation]
    point_ix = np.arange(X.shape[0], dtype=np.uint64)[:, None]
    outs = []
    for s in range(samples):
        a = X
        for l in range(m.n_layers - 1):
            h = act(a @ m.weights[l] + m.biases[l])
            a = h * lane_mask(seed, rate, point_ix, np.uint64(s), np.uint64(l), width=h.shape[1])
        outs.append((a @ m.weights[-1] + m.biases[-1])[:, 0])
    # sums of the offsets from the first pass
    total = np.zeros(X.shape[0])
    total_sq = np.zeros(X.shape[0])
    for out in outs:
        total += out - outs[0]
        total_sq += (out - outs[0]) ** 2
    mean_offset = total / samples
    var = np.maximum(total_sq - samples * mean_offset * mean_offset, 0.0) / (samples - 1)
    return outs[0] + mean_offset, np.sqrt(var)
