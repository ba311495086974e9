"""Uncertainty quantification for regression models.

Three UQ producers (k-fold ensembling, Monte Carlo dropout, evidential
regression on a small MLP), the five-family metric portfolio (accuracy,
sharpness, dispersion, calibration, tightness), adversarial group
calibration, scalar recalibration, and uncertainty-gated screening.
"""

__version__ = "0.1.0"

from .calibration import (
    AdversarialCurve,
    CalibrationCurve,
    adversarial_group_calibration,
    calibration_curve,
    normalized_residuals,
)
from .core import (
    LabeledDataset,
    PredictionSet,
    RngSeed,
    split_k_folds,
    validate_prediction_set,
)
from .datagen import calibrated_prediction_set, generate_synthetic
from .metrics import (
    AccuracyReport,
    DispersionReport,
    accuracy,
    dispersion,
    distribution_summary,
    grouped_metrics,
    sharpness,
)
from .neural import MlpConfig, MlpModel, TrainConfig, loss_and_gradient, predict, train
from .numerics import (
    BrentResult,
    brent_minimize,
    digamma,
    kde_scott,
    log_gamma,
    std_normal_cdf,
    std_normal_quantile,
)
from .recalibration import RecalibrationResult, apply_scalar, fit_scalar
from .report import MetricsReport, evaluate, report_from_dict, report_to_dict
from .scoring import IntervalScoreReport, interval_score
from .screening import ScreenCriteria, ScreenReport, honesty_rate, screen
from .uq_methods import (
    DropoutSpec,
    EnsembleSpec,
    ensemble_predict,
    evidential_predict,
    mc_dropout_predict,
    train_kfold_members,
)

__all__ = [
    "AccuracyReport",
    "AdversarialCurve",
    "BrentResult",
    "CalibrationCurve",
    "DispersionReport",
    "DropoutSpec",
    "EnsembleSpec",
    "IntervalScoreReport",
    "LabeledDataset",
    "MetricsReport",
    "MlpConfig",
    "MlpModel",
    "PredictionSet",
    "RecalibrationResult",
    "RngSeed",
    "ScreenCriteria",
    "ScreenReport",
    "TrainConfig",
    "accuracy",
    "adversarial_group_calibration",
    "apply_scalar",
    "brent_minimize",
    "calibrated_prediction_set",
    "calibration_curve",
    "digamma",
    "dispersion",
    "distribution_summary",
    "ensemble_predict",
    "evaluate",
    "evidential_predict",
    "fit_scalar",
    "generate_synthetic",
    "grouped_metrics",
    "honesty_rate",
    "interval_score",
    "kde_scott",
    "log_gamma",
    "loss_and_gradient",
    "mc_dropout_predict",
    "normalized_residuals",
    "predict",
    "report_from_dict",
    "report_to_dict",
    "screen",
    "sharpness",
    "split_k_folds",
    "std_normal_cdf",
    "std_normal_quantile",
    "train",
    "train_kfold_members",
    "validate_prediction_set",
]
