"""Special functions, bounded scalar minimization, and Scott's-rule KDE.

The probability functions accept scalars or numpy arrays and are exact to
machine precision (they delegate to the battle-tested scipy/C implementations
behind this module's contract). scipy is imported on first use, inside the
call that needs it, so importing this module or the CLI does not load it.
The KDE is written out here because its bandwidth convention — Bessel-corrected
sample std times n**(-1/5) — and its degenerate-sample behavior are part of
the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, NonFiniteValueError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _special(name: str, x, bad, message: str):
    """``scipy.special.<name>`` of ``x`` as a float (scalar ``x``) or an array.

    Raises DomainError(``message``) if ``bad`` is true anywhere on ``x``, before
    scipy is imported.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(bad(arr)):
        raise DomainError(message)
    from scipy import special

    out = getattr(special, name)(arr)
    return float(out) if arr.ndim == 0 else out


def _not_finite_positive(a):
    return ~(np.isfinite(a) & (a > 0.0))


def std_normal_cdf(x):
    """Standard normal CDF Φ(x). Vectorized; |error| < 1e-15."""
    return _special("ndtr", x, np.isnan, "std_normal_cdf requires non-NaN input")


def std_normal_quantile(p):
    """Inverse standard normal CDF Φ⁻¹(p) for p in (0, 1). Vectorized."""
    return _special("ndtri", p, lambda a: ~((a > 0.0) & (a < 1.0)),
                    "std_normal_quantile requires p in the open interval (0, 1)")


def log_gamma(x):
    """ln Γ(x) for x > 0. Vectorized."""
    return _special("gammaln", x, _not_finite_positive, "log_gamma requires x > 0")


def digamma(x):
    """ψ(x) = d/dx ln Γ(x) for x > 0. Vectorized."""
    return _special("psi", x, _not_finite_positive, "digamma requires x > 0")


@dataclass(frozen=True)
class BrentResult:
    """Outcome of a bounded scalar minimization."""

    argmin: float
    value: float
    iterations: int
    converged: bool


def brent_minimize(f, lo: float, hi: float, tol: float = 1e-6, max_iter: int = 200) -> BrentResult:
    """Minimize ``f`` on [lo, hi] by Brent's bounded method.

    ``tol`` is an absolute tolerance on the argument. When ``max_iter`` is
    exhausted the best point found so far is returned with converged=False
    rather than raising.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        f, bounds=(lo, hi), method="bounded", options={"xatol": tol, "maxiter": max_iter}
    )
    x = float(min(max(res.x, lo), hi))
    value = float(res.fun)
    if not np.isfinite(value):
        raise NonFiniteValueError(f"objective is non-finite at x={x}")
    return BrentResult(argmin=x, value=value, iterations=int(res.nit), converged=bool(res.success))


def scott_bandwidth(samples: np.ndarray) -> float:
    """Scott's-rule bandwidth: sample_std(ddof=1) * n**(-1/5)."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    n = samples.size
    if n < 2:
        raise DegenerateSampleError(f"need at least 2 samples, got {n}")
    sd = float(np.std(samples, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("all samples are equal; bandwidth would be zero")
    return sd * n ** (-0.2)


def kde_scott(samples, eval_points) -> np.ndarray:
    """Gaussian kernel density estimate with Scott's-rule bandwidth.

    Returns densities at ``eval_points``; the estimate integrates to 1 over
    the real line (to within trapezoid error on any finite grid).
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    grid = np.asarray(eval_points, dtype=np.float64).ravel()
    if not np.all(np.isfinite(samples)):
        raise NonFiniteValueError("samples must be finite")
    h = scott_bandwidth(samples)
    out = np.zeros(grid.size, dtype=np.float64)
    # chunk over the grid so n_samples x n_grid never materializes at once
    step = max(1, int(4e6 // max(1, samples.size)))
    for start in range(0, grid.size, step):
        g = grid[start : start + step]
        t = (g[:, None] - samples[None, :]) / h
        out[start : start + step] = np.exp(-0.5 * t * t).sum(axis=1) / (samples.size * h * _SQRT_2PI)
    return out
