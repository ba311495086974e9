"""Uncertainty quantification for regression models.

Three UQ producers (k-fold ensembling, Monte Carlo dropout, evidential
regression on a small MLP), the five-family metric portfolio (accuracy,
sharpness, dispersion, calibration, tightness), adversarial group
calibration, scalar recalibration, and uncertainty-gated screening.

``import uqregress`` loads none of its modules: each public name imports the
module that defines it on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "calibration": ("AdversarialCurve", "CalibrationCurve", "adversarial_group_calibration",
                    "calibration_curve", "normalized_residuals"),
    "core": ("LabeledDataset", "PredictionSet", "RngSeed", "split_k_folds",
             "validate_prediction_set"),
    "datagen": ("calibrated_prediction_set", "generate_synthetic"),
    "metrics": ("AccuracyReport", "DispersionReport", "accuracy", "dispersion",
                "distribution_summary", "grouped_metrics", "sharpness"),
    "neural": ("MlpConfig", "MlpModel", "TrainConfig", "loss_and_gradient", "predict", "train"),
    "numerics": ("BrentResult", "brent_minimize", "digamma", "kde_scott", "log_gamma",
                 "std_normal_cdf", "std_normal_quantile"),
    "recalibration": ("RecalibrationResult", "apply_scalar", "fit_scalar"),
    "report": ("MetricsReport", "evaluate", "report_from_dict", "report_to_dict"),
    "scoring": ("IntervalScoreReport", "interval_score"),
    "screening": ("ScreenCriteria", "ScreenReport", "honesty_rate", "screen"),
    "uq_methods": ("DropoutSpec", "EnsembleSpec", "ensemble_predict", "evidential_predict",
                   "mc_dropout_predict", "train_kfold_members"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # a name outside the table raises, so ``from uqregress import cli`` falls
    # back to importing the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
