"""Train the three UQ producers on one dataset and compare their portfolios.

k-fold ensembling spreads k models over disjoint folds; MC dropout samples a
dropout-masked network at prediction time; the evidential head emits its
uncertainty in a single pass. All three land in the same PredictionSet
contract, so the whole metric suite applies uniformly.
"""

import numpy as np

import uqregress as uq
from uqregress.core import RngSeed
from uqregress.neural import MlpConfig, TrainConfig, MlpModel, train
from uqregress.uq_methods import (
    DropoutSpec,
    EnsembleSpec,
    ensemble_predict,
    evidential_predict,
    mc_dropout_predict,
    train_kfold_members,
)

train_data = uq.generate_synthetic(4000, 3, RngSeed(11)).dataset
test_data = uq.generate_synthetic(1500, 3, RngSeed(12)).dataset
fit = dict(epochs=80, batch_size=128, learning_rate=0.01, seed=RngSeed(1))

print("training 5-fold ensemble ...")
members = train_kfold_members(train_data, EnsembleSpec(
    k=5,
    mlp=MlpConfig((3, 32, 1), activation="relu", seed=RngSeed(2)),
    train=TrainConfig(**fit),
))
ensemble = ensemble_predict(members, test_data)

print("training dropout network, sampling 1000 masked passes ...")
drop_model = MlpModel.initialize(MlpConfig((3, 32, 1), activation="relu",
                                           dropout_rate=0.05, seed=RngSeed(3)))
train(drop_model, train_data, TrainConfig(**fit))
dropout = mc_dropout_predict(drop_model, test_data, DropoutSpec(samples=1000, rate=0.05,
                                                               seed=RngSeed(4)))

print("training evidential head (regularization weight 0.05) ...")
evid_model = MlpModel.initialize(MlpConfig((3, 32, 4), activation="relu", seed=RngSeed(5)))
train(evid_model, train_data, TrainConfig(reg_weight=0.05, **fit))
evidential = evidential_predict(evid_model, test_data)

print(f"\n{'method':<12} {'MAE':>7} {'R2':>7} {'Sha':>7} {'IQR':>7} {'Cv':>7} "
      f"{'area':>7} {'score':>7}")
for name, p in (("ensemble", ensemble), ("dropout", dropout), ("evidential", evidential)):
    report, _ = uq.evaluate(p)
    print(f"{name:<12} {report.accuracy.mae:7.3f} {report.accuracy.r2:7.3f} "
          f"{report.sharpness:7.3f} {report.dispersion.iqr:7.3f} {report.dispersion.cv:7.3f} "
          f"{report.miscalibration_area:7.3f} {report.interval_score_mean:7.3f}")

print("\nmean epistemic vs aleatoric channel of the evidential head:")
aleatoric = evidential_predict(evid_model, test_data, uncertainty="aleatoric")
print(f"  epistemic {np.mean(evidential.sigma):.4f}   aleatoric {np.mean(aleatoric.sigma):.4f}")
