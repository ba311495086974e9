"""Reference Φ: cephes ``ndtr.c``'s erfc with its tables in cephes' own order
(highest degree first, the denominators' leading 1 implicit), evaluated by
``polevl``/``p1evl`` loops.

``uqregress.numerics.std_normal_cdf`` must equal ``std_normal_cdf`` here bit
for bit, and ``numerics._erfc`` must equal ``erfc``.
"""

from __future__ import annotations

import math

import numpy as np

T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4)
U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4)
P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2)
R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
MAXLOG = 7.09782712893383996843e2


def _ratio(x: np.ndarray, num: tuple, den: tuple) -> tuple[np.ndarray, np.ndarray]:
    """cephes ``polevl(x, num)`` and ``p1evl(x, den)``: Horner, in the same order."""
    p = np.full_like(x, num[0])
    for c in num[1:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    return p, q


def erfc(a: np.ndarray) -> np.ndarray:
    x = np.abs(a)
    with np.errstate(over="ignore"):
        under = x * x > MAXLOG
    out = np.zeros_like(a)
    inner = x < 1.0
    s = a[inner]
    p, q = _ratio(s * s, T, U)
    out[inner] = 1.0 - s * p / q
    for band, (num, den) in (((x < 8.0) & ~inner, (P, Q)), ((x >= 8.0) & ~under, (R, S))):
        t = x[band]
        p, q = _ratio(t, num, den)
        out[band] = np.exp(-t * t) * p / q
    np.subtract(2.0, out, out=out, where=(a < 0.0) & ~inner)
    return out


def std_normal_cdf(x: np.ndarray) -> np.ndarray:
    out = erfc(np.asarray(x, dtype=np.float64) * -math.sqrt(0.5))
    out *= 0.5
    return out
