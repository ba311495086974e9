"""Uncertainty-gated screening with an interval honesty audit.

Predictions are selected by a window on the predicted value mu (ground truth
is unknown at screening time) and a ceiling on sigma. Selected predictions
are then audited: one is honest if its mu ± multiplier*sigma interval
contains the true value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PredictionSet, validate_prediction_set
from .errors import DomainError


@dataclass(frozen=True)
class ScreenCriteria:
    value_lo: float
    value_hi: float
    sigma_max: float
    honesty_multiplier: float = 3.0

    def __post_init__(self) -> None:
        if not self.value_lo < self.value_hi:
            raise DomainError(f"window [{self.value_lo}, {self.value_hi}] is empty")
        if not self.sigma_max > 0.0:
            raise DomainError(f"sigma_max must be > 0, got {self.sigma_max}")
        if not self.honesty_multiplier > 0.0:
            raise DomainError(f"honesty_multiplier must be > 0, got {self.honesty_multiplier}")


@dataclass(frozen=True)
class ScreenReport:
    selected_ids: tuple[str, ...]
    honest_ids: tuple[str, ...]
    dishonest_ids: tuple[str, ...]

    @property
    def n_selected(self) -> int:
        return len(self.selected_ids)

    @property
    def n_honest(self) -> int:
        return len(self.honest_ids)

    @property
    def n_dishonest(self) -> int:
        return len(self.dishonest_ids)


@np.errstate(over="ignore", invalid="ignore")  # finite inputs above ~1e154 give inf/nan
def screen(p: PredictionSet, c: ScreenCriteria) -> ScreenReport:
    """Select value_lo <= mu <= value_hi and sigma <= sigma_max; audit honesty.

    All boundaries are inclusive. Ids are reported in input order; honest and
    dishonest partition the selection.
    """
    validate_prediction_set(p)
    selected = (p.mu >= c.value_lo) & (p.mu <= c.value_hi) & (p.sigma <= c.sigma_max)
    honest = selected & (np.abs(p.y_true - p.mu) <= c.honesty_multiplier * p.sigma)
    masks = (selected, honest, selected & ~honest)  # ScreenReport's field order
    return ScreenReport(*(tuple(i.decode() for i in p.ids[m].tolist()) for m in masks))


@np.errstate(over="ignore", invalid="ignore")
def honesty_rate(p: PredictionSet, multiplier: float) -> float:
    """Fraction of all points whose mu ± multiplier*sigma covers y_true."""
    validate_prediction_set(p)
    if p.n < 1:
        raise DomainError("honesty_rate needs n >= 1")
    if not multiplier >= 0.0:
        raise DomainError(f"multiplier must be >= 0, got {multiplier}")
    return float(np.mean(np.abs(p.y_true - p.mu) <= multiplier * p.sigma))
