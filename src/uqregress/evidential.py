"""Evidential-regression primitives: head constraints, loss terms, gradients.

A 4-wide network head emits raw outputs (o0..o3) that are mapped to the
evidence distribution parameters

    gamma = o0
    nu    = softplus(o1) + 1e-6          (> 0)
    alpha = softplus(o2) + 1 + 1e-6      (> 1)
    beta  = softplus(o3) + 1e-6          (> 0)

so the negative log-likelihood and the uncertainty channels below are always
well-defined. All array functions are elementwise over samples; analytic
parameter gradients are provided for backpropagation.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .numerics import digamma_half_step, log_gamma_half_step

NU_FLOOR = 1e-6
ALPHA_FLOOR = 1.0 + 1e-6
BETA_FLOOR = 1e-6


def softplus(x, out=None):
    return np.logaddexp(0.0, x, out=out)


@np.errstate(over="ignore")  # exp(-x) is inf below x of about -709, where the logistic is 0
def sigmoid(x):
    """Logistic 1/(1 + exp(-x)), the derivative of :func:`softplus`."""
    return 1.0 / (1.0 + np.exp(-x))


def head_transform(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Map raw head outputs (n, 4) to constrained (gamma, nu, alpha, beta)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != 4:
        raise DomainError(f"expected raw head outputs of shape (n, 4), got {raw.shape}")
    gamma = raw[:, 0]
    nu = softplus(raw[:, 1]) + NU_FLOOR
    alpha = softplus(raw[:, 2]) + ALPHA_FLOOR
    beta = softplus(raw[:, 3]) + BETA_FLOOR
    return gamma, nu, alpha, beta


def head_transform_derivatives(raw: np.ndarray) -> np.ndarray:
    """d(param)/d(raw output) for each of the 4 head channels, shape (n, 4)."""
    raw = np.asarray(raw, dtype=np.float64)
    d = np.empty_like(raw)
    d[:, 0] = 1.0
    d[:, 1:] = sigmoid(raw[:, 1:])
    return d


def nll_array(gamma, nu, alpha, beta, y) -> np.ndarray:
    """Per-sample negative log-likelihood of the evidence distribution."""
    omega = 2.0 * beta * (1.0 + nu)
    a_term = (y - gamma) ** 2 * nu + omega
    return (
        0.5 * np.log(np.pi / nu)
        - alpha * np.log(omega)
        + (alpha + 0.5) * np.log(a_term)
        + log_gamma_half_step(alpha)
    )


def nll_gradients(gamma, nu, alpha, beta, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d/dgamma, d/dnu, d/dalpha, d/dbeta) of the per-sample NLL."""
    r = y - gamma
    omega = 2.0 * beta * (1.0 + nu)
    a_term = r * r * nu + omega
    d_gamma = -2.0 * nu * r * (alpha + 0.5) / a_term
    d_nu = -0.5 / nu - 2.0 * alpha * beta / omega + (alpha + 0.5) * (r * r + 2.0 * beta) / a_term
    d_alpha = np.log(a_term) - np.log(omega) + digamma_half_step(alpha)
    d_beta = 2.0 * (1.0 + nu) * ((alpha + 0.5) / a_term - alpha / omega)
    return d_gamma, d_nu, d_alpha, d_beta


def regularizer_array(gamma, nu, alpha, y) -> np.ndarray:
    """Per-sample evidence regularizer |y - gamma| * (2*nu + alpha)."""
    return np.abs(y - gamma) * (2.0 * nu + alpha)


def regularizer_gradients(gamma, nu, alpha, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d/dgamma, d/dnu, d/dalpha, d/dbeta) of the regularizer."""
    r = y - gamma
    d_gamma = -np.sign(r) * (2.0 * nu + alpha)
    d_nu = 2.0 * np.abs(r)
    d_alpha = np.abs(r)
    return d_gamma, d_nu, d_alpha, np.zeros_like(d_nu)


def uncertainty_channels(nu, alpha, beta, apply_sqrt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Aleatoric beta/(alpha-1) and epistemic beta/(nu*(alpha-1)) channels.

    The expressions are used verbatim as standard deviations by default;
    ``apply_sqrt=True`` treats them as variances and returns their roots.
    """
    aleatoric = beta / (alpha - 1.0)
    epistemic = beta / (nu * (alpha - 1.0))
    if apply_sqrt:
        aleatoric = np.sqrt(aleatoric)
        epistemic = np.sqrt(epistemic)
    return aleatoric, epistemic
