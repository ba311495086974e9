"""The three uncertainty producers: k-fold ensemble, MC dropout, evidential.

Each emits a PredictionSet (ids, y_true, mu, sigma) over a test dataset.
Ensembles train k independent members on folds of the training data and use
the spread of their predictions; MC dropout keeps dropout active at
prediction time and aggregates stochastic passes; the evidential head reads
both channels off a single deterministic pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import evidential as ev
from .core import (LabeledDataset, PredictionSet, RngSeed, check_count, counter_uniform,
                   split_k_folds)
from .errors import DomainError, FoldTooSmallError, WrongHeadWidthError
from .neural import (MlpConfig, MlpModel, TrainConfig, _forward_cached, _hidden_masks, _mask_index,
                     predict, train)

MEMBER_TRAINING_MODES = ("one_fold_each", "leave_one_fold_out")
EVIDENTIAL_CHANNELS = ("epistemic", "aleatoric")  # the sigma evidential_predict can report

# stream namespaces: fold shuffling, member init, member training
_FOLD_NS = 11
_INIT_NS = 12
_TRAIN_NS = 13


@dataclass(frozen=True)
class EnsembleSpec:
    """k members plus the shared architecture/training recipe.

    ``one_fold_each`` trains member i on fold i alone (each member sees 1/k
    of the data); ``leave_one_fold_out`` trains member i on everything but
    fold i.
    """

    k: int
    mlp: MlpConfig
    train: TrainConfig
    member_training: str = "one_fold_each"

    def __post_init__(self) -> None:
        check_count(self.k, "k", 2)
        if self.member_training not in MEMBER_TRAINING_MODES:
            raise DomainError(f"member_training must be one of {MEMBER_TRAINING_MODES}")


@dataclass(frozen=True)
class DropoutSpec:
    """MC dropout sampling: number of stochastic passes and the drop rate."""

    samples: int
    rate: float = 0.05
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        check_count(self.samples, "samples", 2)  # a std needs two draws
        if not 0.0 <= self.rate <= 0.5:
            raise DomainError(f"dropout rate must be in [0, 0.5], got {self.rate}")


def train_kfold_members(train_data: LabeledDataset, spec: EnsembleSpec) -> list[MlpModel]:
    """Train the k fold-assigned ensemble members (independent seeds each)."""
    folds = split_k_folds(train_data, spec.k, spec.train.seed.derive(_FOLD_NS))
    row = {rid: i for i, rid in enumerate(train_data.ids)}  # ids are unique
    members = []
    for i in range(spec.k):
        if spec.member_training == "one_fold_each":
            member_data = folds[i]
        else:  # the other folds' rows, in fold order
            member_data = train_data.subset(
                [row[rid] for j, f in enumerate(folds) if j != i for rid in f.ids])
        if member_data.n < 2:
            raise FoldTooSmallError(
                f"member {i} would train on {member_data.n} sample(s); "
                f"choose a smaller k than {spec.k}"
            )
        model = MlpModel.initialize(replace(spec.mlp, seed=spec.mlp.seed.derive(_INIT_NS, i)))
        member_cfg = replace(spec.train, seed=spec.train.seed.derive(_TRAIN_NS, i))
        train(model, member_data, member_cfg)
        members.append(model)
    return members


def ensemble_predict(members: list[MlpModel], test: LabeledDataset) -> PredictionSet:
    """Aggregate trained members' deterministic predictions on a test set:
    mu = member mean, sigma = Bessel-corrected member std, per test point."""
    if len(members) < 2:
        raise DomainError("need >= 2 members for a std")
    if any(m.config.layer_widths[-1] != 1 for m in members):
        raise WrongHeadWidthError("an ensemble averages 1-unit regression heads")
    outputs = np.empty((len(members), test.n))
    for i, model in enumerate(members):
        outputs[i] = predict(model, test.features)[:, 0]
    return PredictionSet(test.ids, test.targets, outputs.mean(axis=0), outputs.std(axis=0, ddof=1),
                         test.groups)


def _mc_forward(m: MlpModel, hidden0: np.ndarray, rate: float, seed: RngSeed, sample: int,
                work: np.ndarray) -> np.ndarray:
    """One stochastic pass from the first hidden activation, which no mask
    precedes. The masks are training's (:func:`neural._hidden_masks`), keyed
    by (point index, sample index, layer, unit), so results do not depend on
    evaluation order or batching; one counter call covers every hidden layer.

    ``work`` is a (layers, points, widest layer) float64 buffer that every
    pass reuses for its masks: fresh full-shape arrays each pass cost more
    in page faults than in arithmetic.
    """
    u = counter_uniform(seed, *_mask_index(m, work.shape[1], sample), out=work)
    masks = _hidden_masks(m, u, rate)
    # layer 0's mask is used once, so its slot takes the masked activation
    return _forward_cached(m, np.multiply(hidden0, masks[0], out=masks[0]), masks, start=1)[2][:, 0]


def mc_dropout_predict(m: MlpModel, test: LabeledDataset, spec: DropoutSpec) -> PredictionSet:
    """S stochastic passes with dropout active; mu/sigma across samples.

    rate == 0 short-circuits to the deterministic forward with sigma == 0
    (the no-mask limit, exact by construction).
    """
    if m.config.layer_widths[-1] != 1:
        raise WrongHeadWidthError("MC dropout aggregates a 1-unit regression head")
    if spec.rate == 0.0:
        mu = predict(m, test.features)[:, 0]
        return PredictionSet(test.ids, test.targets, mu, np.zeros(test.n), test.groups)
    hidden0 = _forward_cached(m, test.features, None)[0][1]  # the same in every pass
    hidden = m.config.layer_widths[1:-1]
    work = np.empty((len(hidden), test.n, max(hidden)))
    total = np.zeros(test.n)
    total_sq = np.zeros(test.n)
    for s in range(spec.samples):
        out = _mc_forward(m, hidden0, spec.rate, spec.seed, s, work)
        total += out
        total_sq += out * out
    mu = total / spec.samples
    var = np.maximum(total_sq - spec.samples * mu * mu, 0.0) / (spec.samples - 1)
    return PredictionSet(test.ids, test.targets, mu, np.sqrt(var), test.groups)


def evidential_predict(
    m: MlpModel,
    test: LabeledDataset,
    uncertainty: str = "epistemic",
    apply_sqrt: bool = False,
) -> PredictionSet:
    """One deterministic pass; mu = gamma, sigma = the chosen channel."""
    if m.config.layer_widths[-1] != 4:
        raise WrongHeadWidthError(
            f"evidential prediction needs a 4-unit head, model has {m.config.layer_widths[-1]}"
        )
    if uncertainty not in EVIDENTIAL_CHANNELS:
        raise DomainError(f"uncertainty must be one of {EVIDENTIAL_CHANNELS}, got {uncertainty!r}")
    raw = predict(m, test.features)
    gamma, nu, alpha, beta = ev.head_transform(raw)
    aleatoric, epistemic = ev.uncertainty_channels(nu, alpha, beta, apply_sqrt=apply_sqrt)
    sigma = epistemic if uncertainty == "epistemic" else aleatoric
    return PredictionSet(test.ids, test.targets, gamma, sigma, test.groups)
