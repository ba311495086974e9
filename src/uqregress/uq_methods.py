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
# split_k_folds is bound here for perfbench/tracing.py, which wraps it by this name
from .core import (LabeledDataset, PredictionSet, RngSeed, check_count, counter_uniform,  # noqa: F401
                   fold_rows, split_k_folds)
from .errors import DomainError, FoldTooSmallError, WrongHeadWidthError
from .neural import (MlpConfig, MlpModel, TrainConfig, _forward_cached, _hidden_masks,
                     _mask_index, check_dropout_rate, predict, train)

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
        check_dropout_rate(self.rate, "dropout rate")


def train_kfold_members(train_data: LabeledDataset, spec: EnsembleSpec) -> list[MlpModel]:
    """Train the k fold-assigned ensemble members (independent seeds each)."""
    rows = fold_rows(train_data.n, spec.k, spec.train.seed.derive(_FOLD_NS))
    members = []
    for i in range(spec.k):
        member_data = train_data.subset(
            rows[i] if spec.member_training == "one_fold_each"
            else np.concatenate(rows[:i] + rows[i + 1:]))  # the other folds' rows, in fold order
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
                work: list[np.ndarray]) -> np.ndarray:
    """One stochastic pass from the first hidden activation, which no mask
    precedes. The masks are training's (:func:`neural._hidden_masks`), keyed
    by (point index, sample index, layer, unit // 4), so results do not depend
    on evaluation order or batching; one counter call covers every hidden
    layer.

    Every pass writes its layers into the ``work`` buffers: fresh
    (points, width) arrays each pass made the heap shrink and grow again,
    which cost more in page faults than the arithmetic.
    """
    h = counter_uniform(seed, *_mask_index(m, hidden0.shape[0], sample))
    masks = _hidden_masks(m, h, rate)
    # layer 0's mask is used once, so its slot takes the masked activation
    a = np.multiply(hidden0, masks[0], out=masks[0])
    return _forward_cached(m, a, masks, start=1, work=work)[2][:, 0]


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
    work = [np.empty((test.n, w)) for w in m.config.layer_widths[2:]]
    # the sums run over each pass's offset from the first pass, so a large
    # |mu| against sigma does not cancel the variance's digits
    shift = _mc_forward(m, hidden0, spec.rate, spec.seed, 0, work).copy()
    total = np.zeros(test.n)
    total_sq = np.zeros(test.n)
    offset = np.empty(test.n)
    for s in range(1, spec.samples):
        np.subtract(_mc_forward(m, hidden0, spec.rate, spec.seed, s, work), shift, out=offset)
        total += offset
        offset *= offset
        total_sq += offset
    mean_offset = total / spec.samples
    var = np.maximum(total_sq - spec.samples * mean_offset * mean_offset, 0.0) / (spec.samples - 1)
    return PredictionSet(test.ids, test.targets, shift + mean_offset, np.sqrt(var), test.groups)


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
