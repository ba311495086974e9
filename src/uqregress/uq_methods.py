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
from .core import LabeledDataset, PredictionSet, RngSeed, counter_uniform, split_k_folds
from .errors import DomainError, FoldTooSmallError, WrongHeadWidthError
from .neural import MlpConfig, MlpModel, TrainConfig, _forward_cached, predict, train

MEMBER_TRAINING_MODES = ("one_fold_each", "leave_one_fold_out")

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
        if self.k < 2:
            raise DomainError(f"ensemble needs k >= 2, got {self.k}")
        if self.member_training not in MEMBER_TRAINING_MODES:
            raise DomainError(f"member_training must be one of {MEMBER_TRAINING_MODES}")


@dataclass(frozen=True)
class DropoutSpec:
    """MC dropout sampling: number of stochastic passes and the drop rate."""

    samples: int
    rate: float = 0.05
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise DomainError(f"need >= 2 dropout samples for a std, got {self.samples}")
        if not 0.0 <= self.rate <= 0.5:
            raise DomainError(f"dropout rate must be in [0, 0.5], got {self.rate}")


def aggregate_member_predictions(
    test: LabeledDataset, member_outputs: np.ndarray
) -> PredictionSet:
    """mu = member mean, sigma = Bessel-corrected member std, per test point."""
    outputs = np.asarray(member_outputs, dtype=np.float64)
    if outputs.ndim != 2 or outputs.shape[1] != test.n:
        raise DomainError(f"expected (k, {test.n}) member outputs, got {outputs.shape}")
    if outputs.shape[0] < 2:
        raise DomainError("need >= 2 members for a std")
    return PredictionSet(
        ids=test.ids,
        y_true=test.targets,
        mu=outputs.mean(axis=0),
        sigma=outputs.std(axis=0, ddof=1),
        groups=test.groups,
    )


def train_kfold_members(train_data: LabeledDataset, spec: EnsembleSpec) -> list[MlpModel]:
    """Train the k fold-assigned ensemble members (independent seeds each)."""
    folds = split_k_folds(train_data, spec.k, spec.train.seed.derive(_FOLD_NS))
    members = []
    for i in range(spec.k):
        if spec.member_training == "one_fold_each":
            member_data = folds[i]
        else:
            rest = [f for j, f in enumerate(folds) if j != i]
            member_data = LabeledDataset(
                ids=tuple(rid for f in rest for rid in f.ids),
                features=np.vstack([f.features for f in rest]),
                targets=np.concatenate([f.targets for f in rest]),
                groups=None
                if train_data.groups is None
                else tuple(g for f in rest for g in f.groups),
            )
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
    """Aggregate trained members' deterministic predictions on a test set."""
    outputs = np.empty((len(members), test.n))
    for i, model in enumerate(members):
        outputs[i] = predict(model, test.features)[:, 0]
    return aggregate_member_predictions(test, outputs)


def kfold_ensemble_predict(
    train_data: LabeledDataset, test: LabeledDataset, spec: EnsembleSpec
) -> PredictionSet:
    """Train k fold-assigned members and aggregate their test predictions."""
    return ensemble_predict(train_kfold_members(train_data, spec), test)


def _mc_forward(m: MlpModel, hidden0: np.ndarray, rate: float, seed: RngSeed, sample: int,
                work: np.ndarray) -> np.ndarray:
    """One stochastic pass from the first hidden activation, which no mask
    precedes. Each (point, unit) mask comes from a stateless counter keyed by
    (point index, sample index, layer, unit), so results do not depend on
    evaluation order or batching; one counter call covers every hidden layer.

    ``work`` is a (layers, points, widest layer) float64 buffer that every
    pass reuses for its masks: fresh full-shape arrays each pass cost more
    in page faults than in arithmetic.
    """
    layers, points, width = work.shape
    u = counter_uniform(
        seed,
        np.arange(points, dtype=np.uint64)[:, None],
        np.uint64(sample),
        np.arange(layers, dtype=np.uint64)[:, None, None],
        np.arange(width, dtype=np.uint64),
        out=work,
    )
    np.multiply(u >= rate, 1.0 / (1.0 - rate), out=work)
    masks = [work[l, :, :w] for l, w in enumerate(m.config.layer_widths[1:-1])]
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
    if uncertainty not in ("epistemic", "aleatoric"):
        raise DomainError(f"uncertainty must be 'epistemic' or 'aleatoric', got {uncertainty!r}")
    raw = predict(m, test.features)
    gamma, nu, alpha, beta = ev.head_transform(raw)
    aleatoric, epistemic = ev.uncertainty_channels(nu, alpha, beta, apply_sqrt=apply_sqrt)
    sigma = epistemic if uncertainty == "epistemic" else aleatoric
    return PredictionSet(test.ids, test.targets, gamma, sigma, test.groups)
