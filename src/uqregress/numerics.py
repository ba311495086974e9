"""Special functions, bounded scalar minimization, and Scott's-rule KDE.

Everything here is numpy and the standard library; nothing loads scipy. The
probability functions accept scalars or numpy arrays. Φ is scipy's own
formula written in numpy (within a few ulp of ``scipy.special.ndtr``, see
``std_normal_cdf``), Φ⁻¹ is the stdlib's AS241 (within a few ulp of
``ndtri``), and ``brent_minimize`` runs scipy's bounded Brent iterates in
plain Python. ``log_gamma`` is ``math.lgamma`` of each value, and ``digamma``
is the recurrence to x + 16 followed by the asymptotic series. The
evidential loss needs only ln Γ(α) − ln Γ(α + ½) and ψ(α) − ψ(α + ½), which
``log_gamma_half_step`` and ``digamma_half_step`` compute as differences,
without checks, for α ≥ 1.

Those few ulps move a point across a grid value only if it lies within ulps
of it. So the z-space recalibration fit, which compares z with Φ⁻¹ of the
grid, has the areas of a fit that draws one Φ-based curve per evaluation,
unless a point lies within ulps of a grid quantile.

The KDE is written out here because its bandwidth convention —
Bessel-corrected sample std times n**(-1/5) — and its degenerate-sample
behavior are part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_count
from .errors import DegenerateSampleError, DomainError, NonFiniteValueError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational forms of cephes ``ndtr.c`` (Stephen L. Moshier, BSD licence), the
# erf/erfc scipy.special evaluates: T/U give erf on |x| < 1, P/Q and R/S give
# erfc on [1, 8) and [8, inf). Lowest degree first, for ``_horner``; U, Q and S
# end in the leading 1 that cephes' ``p1evl`` leaves implicit.
_ERF_T = (5.55923013010394962768e4, 7.00332514112805075473e3, 2.23200534594684319226e3,
          9.00260197203842689217e1, 9.60497373987051638749e0)
_ERF_U = (4.92673942608635921086e4, 2.26290000613890934246e4, 4.59432382970980127987e3,
          5.21357949780152679795e2, 3.35617141647503099647e1, 1.0)
_ERFC_P = (5.57535335369399327526e2, 1.02755188689515710272e3, 9.34528527171957607540e2,
           5.26445194995477358631e2, 1.96520832956077098242e2, 4.86371970985681366614e1,
           7.46321056442269912687e0, 5.64189564831068821977e-1, 2.46196981473530512524e-10)
_ERFC_Q = (5.57535340817727675546e2, 1.65666309194161350182e3, 2.24633760818710981792e3,
           1.82390916687909736289e3, 9.75708501743205489753e2, 3.54937778887819891062e2,
           8.67072140885989742329e1, 1.32281951154744992508e1, 1.0)
_ERFC_R = (2.97886665372100240670e0, 7.40974269950448939160e0, 6.16021097993053585195e0,
           5.01905042251180477414e0, 1.27536670759978104416e0, 5.64189583547755073984e-1)
_ERFC_S = (3.36907645100081516050e0, 9.60896809063285878198e0, 1.70814450747565897222e1,
           1.20489539808096656605e1, 9.39603524938001434673e0, 2.26052863220117276590e0, 1.0)
_MAXLOG = 7.09782712893383996843e2  # erfc(x) is taken as 0 (or 2) once x*x > _MAXLOG


def _erfc(a: np.ndarray) -> np.ndarray:
    """cephes ``erfc`` of a float64 array, with ``np.exp`` in place of libm's."""
    x = np.abs(a)
    with np.errstate(over="ignore"):
        under = x * x > _MAXLOG  # erfc is 0 (2 for a < 0) here, +-inf included
    out = np.zeros_like(a)
    inner = x < 1.0  # erfc = 1 - erf(a)
    s = a[inner]
    s2 = s * s
    out[inner] = 1.0 - s * _horner(s2, _ERF_T) / _horner(s2, _ERF_U)
    for band, (num, den) in (((x < 8.0) & ~inner, (_ERFC_P, _ERFC_Q)),
                             ((x >= 8.0) & ~under, (_ERFC_R, _ERFC_S))):
        t = x[band]
        out[band] = np.exp(-t * t) * _horner(t, num) / _horner(t, den)
    np.subtract(2.0, out, out=out, where=(a < 0.0) & ~inner)
    return out


def _positive(x, message: str) -> np.ndarray:
    """``x`` as a float64 array; DomainError(``message``) unless every value is finite and > 0."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise DomainError(message)
    return arr


def _horner(r, coefs: tuple):
    """coefs[0] + coefs[1] r + coefs[2] r² + …, for an array or a float ``r``."""
    out = coefs[-1] * r
    for c in coefs[-2:0:-1]:
        out += c
        out *= r
    out += coefs[0]
    return out


def std_normal_cdf(x):
    """Standard normal CDF Φ(x). Vectorized; exactly 0 and 1 at -inf and +inf.

    Computed as 0.5 * erfc(-x / sqrt(2)), which is how ``scipy.special.ndtr``
    computes it, with cephes' erfc. The only difference is ``np.exp`` for
    libm's ``exp``: the result is within a few ulp of scipy's wherever that is
    a normal float, and within 1e-323 below (about x < -37.5).
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(arr)):
        raise DomainError("std_normal_cdf requires non-NaN input")
    out = _erfc(np.atleast_1d(arr * -math.sqrt(0.5)))
    out *= 0.5
    return float(out[0]) if arr.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF Φ⁻¹(p) for p in (0, 1). Vectorized.

    Each value is ``statistics.NormalDist().inv_cdf`` (Wichura's AS241, near
    full double precision); callers pass grids of ~100 levels, not data.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("std_normal_quantile requires p in the open interval (0, 1)")
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    out = np.array([inv_cdf(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


def _lgamma(v: float) -> float:
    try:
        return math.lgamma(v)
    except OverflowError:  # ln Γ(x) is beyond the float range for x above about 2.55e305
        return math.inf


def log_gamma(x):
    """ln Γ(x) for x > 0. Vectorized.

    Each value is ``math.lgamma``, so ln Γ(1) and ln Γ(2) are exactly 0.0.
    """
    arr = _positive(x, "log_gamma requires x > 0")
    out = np.array([_lgamma(v) for v in arr.ravel().tolist()], dtype=np.float64).reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out


# The recurrences ln Γ(x) = ln Γ(x + K) − Σ ln(x + k) and ψ(x) = ψ(x + K) − Σ 1/(x + k),
# k < K, move the argument to z = x + K > K, where the asymptotic series below,
# cut after the listed terms, are accurate to about 1e-16.
_K = 16.0
_SHIFTS = np.arange(_K)  # the k
# ψ(z) = ln z − 1/(2z) − Σ_m B₂ₘ/(2m z²ᵐ): the B₂ₘ/(2m), m = 1..6
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)
# ln Γ(z) − ln Γ(z + ½) = −½ ln z + Σ_j c_j z^-(2j+1): the c_j, j = 0..4
_HALF_STEP_SERIES = (1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432)
# its derivative, ψ(z) − ψ(z + ½) = −1/(2z) − Σ_j (2j+1) c_j z^-(2j+2)
_DIGAMMA_HALF_STEP_SERIES = tuple(-(2 * j + 1) * c for j, c in enumerate(_HALF_STEP_SERIES))


@np.errstate(over="ignore")  # 1/x is inf below x of about 5.6e-309, and so is -ψ(x) ≈ 1/x
def digamma(x):
    """ψ(x) = d/dx ln Γ(x) for x > 0. Vectorized."""
    arr = _positive(x, "digamma requires x > 0")
    z = arr + _K
    u = 1.0 / z
    r = u * u
    out = np.log(z) - 0.5 * u - r * _horner(r, _DIGAMMA_SERIES)
    out -= (1.0 / np.add.outer(_SHIFTS, arr)).sum(0)
    return float(out) if arr.ndim == 0 else out


def log_gamma_half_step(a):
    """ln Γ(a) − ln Γ(a + ½), elementwise, for a >= 1 (unchecked).

    Computed as one difference, so it keeps its precision at large a, where
    the two ln Γ values are large and nearly equal: Σ_k ln(1 + ½/(a + k))
    plus the series at z = a + 16.
    """
    u = 1.0 / (a + _K)
    out = _horner(u * u, _HALF_STEP_SERIES)
    out *= u
    out += np.log1p(0.5 / np.add.outer(_SHIFTS, a)).sum(0)
    out += 0.5 * np.log(u)
    return out


def digamma_half_step(a):
    """ψ(a) − ψ(a + ½), elementwise, for a >= 1 (unchecked): the derivative of
    :func:`log_gamma_half_step`, term by term."""
    u = 1.0 / (a + _K)
    r = u * u
    out = _horner(r, _DIGAMMA_HALF_STEP_SERIES)
    out *= r
    t = np.add.outer(_SHIFTS, a)
    out -= 0.5 * ((1.0 / (t * (t + 0.5))).sum(0) + u)
    return out


@dataclass(frozen=True)
class BrentResult:
    """Outcome of a bounded scalar minimization."""

    argmin: float
    value: float
    iterations: int
    converged: bool


def brent_minimize(f, lo: float, hi: float, tol: float = 1e-6, max_iter: int = 200) -> BrentResult:
    """Minimize ``f`` on [lo, hi] by Brent's bounded method.

    ``tol`` is an absolute tolerance on the argument. ``f`` is evaluated at
    most max(max_iter, 2) times, since the budget is first checked after the
    second evaluation (scipy's ``maxfun``); ``iterations`` is the number of
    evaluations. When the budget is spent the best point found so far is
    returned with converged=False rather than raising.

    This is scipy's ``_minimize_scalar_bounded`` (``minimize_scalar(method=
    "bounded")``, scipy/optimize/_optimize.py, BSD-3-Clause, Copyright (c)
    2001-2002 Enthought, Inc., 2003 SciPy Developers) without its printing:
    it evaluates ``f`` at the same points in the same order, so it returns
    what the scipy call would.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise DomainError(f"tol must be finite and positive, got {tol}")
    max_iter = check_count(max_iter, "max_iter", 1)
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    fu = np.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + tol / 3.0
    tol2 = 2.0 * tol1
    converged = True
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = not np.abs(e) > tol1
        if not golden:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            golden = not (np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf))
            if not golden:
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + tol / 3.0
        tol2 = 2.0 * tol1
        if num >= max_iter:
            converged = False
            break
    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        converged = False
    x = float(min(max(xf, lo), hi))
    value = float(fx)
    if not np.isfinite(value):
        raise NonFiniteValueError(f"objective is non-finite at x={x}")
    return BrentResult(argmin=x, value=value, iterations=num, converged=converged)


@np.errstate(over="ignore", invalid="ignore")  # finite inputs above ~1e154 give inf/nan
def scott_bandwidth(samples: np.ndarray) -> float:
    """Scott's-rule bandwidth: sample_std(ddof=1) * n**(-1/5)."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    n = samples.size
    if n < 2:
        raise DegenerateSampleError(f"need at least 2 samples, got {n}")
    sd = float(np.std(samples, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("all samples are equal; bandwidth would be zero")
    if not np.isfinite(sd):
        raise DegenerateSampleError(f"sample std is {sd}; bandwidth would not be finite")
    return sd * n ** (-0.2)


@np.errstate(over="ignore", invalid="ignore")
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
    step = max(1, int(1e6 // max(1, samples.size)))
    for start in range(0, grid.size, step):
        g = grid[start : start + step]
        t = (g[:, None] - samples[None, :]) / h
        out[start : start + step] = np.exp(-0.5 * t * t).sum(axis=1) / (samples.size * h * _SQRT_2PI)
    return out
