"""Small fully connected regression network with hand-written backprop.

Forward/backward passes, inverted dropout, and plain mini-batch SGD are
implemented directly on numpy arrays so every gradient is analytic and
checkable against finite differences. The output head is either 1 unit
(plain regression, squared-error loss) or 4 units (evidential head).
Hidden layers carry the activation and dropout; the output layer is linear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import evidential as ev
from .core import LabeledDataset, RngSeed
from .errors import (
    DivergenceError,
    DomainError,
    NonFiniteLossError,
    ShapeMismatchError,
    WrongHeadWidthError,
)

_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "softplus": (ev.softplus, lambda z: 1.0 / (1.0 + np.exp(-z))),
}

LOSS_KINDS = ("squared_error", "evidential")

# stream namespaces under a training seed, so shuffling and masks never collide
_SHUFFLE_NS = 1
_MASK_NS = 2


@dataclass(frozen=True)
class MlpConfig:
    """Architecture: input width, hidden widths, output width (1 or 4)."""

    layer_widths: tuple[int, ...]
    activation: str = "tanh"
    dropout_rate: float = 0.0
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise DomainError("need at least one hidden layer (input, hidden..., output)")
        if any(w < 1 for w in self.layer_widths):
            raise DomainError(f"layer widths must be positive, got {self.layer_widths}")
        if self.layer_widths[-1] not in (1, 4):
            raise WrongHeadWidthError(
                f"output width must be 1 (plain) or 4 (evidential), got {self.layer_widths[-1]}"
            )
        if self.activation not in _ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate <= 0.5:
            raise DomainError(f"dropout_rate must be in [0, 0.5], got {self.dropout_rate}")

    @property
    def head(self) -> str:
        return "evidential" if self.layer_widths[-1] == 4 else "plain"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    loss: str = "squared_error"
    reg_weight: float = 0.0
    lr_decay: float = 0.0  # lr at epoch e is learning_rate / (1 + lr_decay * e)
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise DomainError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0.0:
            raise DomainError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.lr_decay < 0.0:
            raise DomainError(f"lr_decay must be >= 0, got {self.lr_decay}")
        if self.loss not in LOSS_KINDS:
            raise DomainError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.reg_weight < 0.0:
            raise DomainError(f"reg_weight must be >= 0, got {self.reg_weight}")
        if self.reg_weight > 0.2:
            warnings.warn(
                f"evidential regularization weight {self.reg_weight} > 0.2 is prone to divergence",
                stacklevel=2,
            )


@dataclass
class MlpModel:
    """Parameter container; mutated only by :func:`train`."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    config: MlpConfig

    @classmethod
    def initialize(cls, config: MlpConfig) -> "MlpModel":
        """Kaiming-style scaled-uniform init, seeded by config.seed."""
        rng = config.seed.generator()
        weights, biases = [], []
        widths = config.layer_widths
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, config=config)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.config.layer_widths[0]


def _hidden_masks_from_generator(m: MlpModel, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    rate = m.config.dropout_rate
    keep = 1.0 - rate
    masks = []
    for w in m.config.layer_widths[1:-1]:
        masks.append((rng.random((n, w)) >= rate).astype(np.float64) / keep)
    return masks


def _forward_cached(m: MlpModel, X: np.ndarray, masks: list[np.ndarray] | None, start: int = 0):
    """Return (layer inputs, hidden pre-activations, raw output).

    With ``start`` > 0, X is the (masked) input of layer ``start`` and the
    returned lists cover only the layers from there on.
    """
    act, _ = _ACTIVATIONS[m.config.activation]
    a = X
    layer_inputs = [X]
    pre_acts = []
    for l in range(start, m.n_layers - 1):
        z = a @ m.weights[l] + m.biases[l]
        pre_acts.append(z)
        a = act(z)
        if masks is not None:
            a = a * masks[l]
        layer_inputs.append(a)
    raw = a @ m.weights[-1] + m.biases[-1]
    return layer_inputs, pre_acts, raw


def _backward(m: MlpModel, layer_inputs, pre_acts, masks, d_raw: np.ndarray):
    """Gradients of the batch-mean loss given per-sample d(loss)/d(raw)."""
    _, act_deriv = _ACTIVATIONS[m.config.activation]
    n = d_raw.shape[0]
    grads_w = [None] * m.n_layers
    grads_b = [None] * m.n_layers
    delta = d_raw
    grads_w[-1] = layer_inputs[-1].T @ delta / n
    grads_b[-1] = delta.sum(axis=0) / n
    for l in range(m.n_layers - 2, -1, -1):
        delta = delta @ m.weights[l + 1].T
        if masks is not None:
            delta = delta * masks[l]
        delta = delta * act_deriv(pre_acts[l])
        grads_w[l] = layer_inputs[l].T @ delta / n
        grads_b[l] = delta.sum(axis=0) / n
    return list(zip(grads_w, grads_b))


def forward(
    m: MlpModel,
    x: np.ndarray,
    dropout_active: bool = False,
    seed: RngSeed | None = None,
) -> np.ndarray:
    """One forward pass for a single feature vector.

    With ``dropout_active`` each hidden unit is zeroed independently with
    probability dropout_rate and survivors are scaled by 1/(1-rate); the mask
    is drawn from ``seed`` and therefore identical on repeated calls.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != m.input_dim:
        raise ShapeMismatchError(f"input width {x.shape[0]}, expected {m.input_dim}")
    masks = None
    if dropout_active and m.config.dropout_rate > 0.0:
        if seed is None:
            raise DomainError("dropout_active with rate > 0 requires a seed")
        masks = _hidden_masks_from_generator(m, 1, seed.generator())
    _, _, raw = _forward_cached(m, x[None, :], masks)
    return raw[0]


def predict(m: MlpModel, features: np.ndarray) -> np.ndarray:
    """Deterministic batch forward (dropout off). Returns (n, out_width)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise ShapeMismatchError(f"features shape {X.shape}, expected (n, {m.input_dim})")
    _, _, raw = _forward_cached(m, X, None)
    return raw


def _per_sample_loss_and_draw(m: MlpModel, raw: np.ndarray, y: np.ndarray, loss: str, reg_weight: float):
    if loss == "squared_error":
        if raw.shape[1] != 1:
            raise WrongHeadWidthError("squared_error loss needs a 1-unit head")
        resid = raw[:, 0] - y
        return resid**2, (2.0 * resid)[:, None]
    if loss == "evidential":
        if raw.shape[1] != 4:
            raise WrongHeadWidthError("evidential loss needs a 4-unit head")
        gamma, nu, alpha, beta = ev.head_transform(raw)
        losses = ev.nll_array(gamma, nu, alpha, beta, y)
        dg, dn, da, db = ev.nll_gradients(gamma, nu, alpha, beta, y)
        if reg_weight != 0.0:
            losses = losses + reg_weight * ev.regularizer_array(gamma, nu, alpha, y)
            rg, rn, ra, rb = ev.regularizer_gradients(gamma, nu, alpha, y)
            dg, dn, da, db = dg + reg_weight * rg, dn + reg_weight * rn, da + reg_weight * ra, db + reg_weight * rb
        d_params = np.stack([dg, dn, da, db], axis=1)
        return losses, d_params * ev.head_transform_derivatives(raw)
    raise DomainError(f"unknown loss {loss!r}")


def _loss_and_grads(m, X, y, sample_id, loss, reg_weight, masks):
    """Batch-mean loss and gradients; ``sample_id(row)`` names a batch row
    and is called only to report a non-finite loss."""
    layer_inputs, pre_acts, raw = _forward_cached(m, X, masks)
    with np.errstate(over="ignore", invalid="ignore"):  # guarded just below
        losses, d_raw = _per_sample_loss_and_draw(m, raw, y, loss, reg_weight)
    bad = ~np.isfinite(losses)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteLossError(f"loss is {losses[i]} for sample {sample_id(i)!r}")
    return float(losses.mean()), _backward(m, layer_inputs, pre_acts, masks, d_raw)


def loss_and_gradient(
    m: MlpModel,
    batch: LabeledDataset,
    loss: str = "squared_error",
    reg_weight: float = 0.0,
    dropout_seed: RngSeed | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean loss over the batch and analytic gradients for every parameter.

    Gradients come back as one (dW, db) pair per layer, matching the batch
    mean exactly (finite-difference checkable). Dropout masks, if requested,
    are fixed by ``dropout_seed`` so the loss stays deterministic.
    """
    masks = None
    if dropout_seed is not None and m.config.dropout_rate > 0.0:
        masks = _hidden_masks_from_generator(m, batch.n, dropout_seed.generator())
    return _loss_and_grads(m, batch.features, batch.targets, batch.ids.__getitem__, loss,
                           reg_weight, masks)


def _flatten_parameters(m: MlpModel) -> np.ndarray:
    """Copy every weight and bias into one float64 buffer and make the
    model's arrays views into it, so one ``isfinite`` call checks them all."""
    arrays = [a for pair in zip(m.weights, m.biases) for a in pair]
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    views, start = [], 0
    for a in arrays:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    m.weights[:], m.biases[:] = views[0::2], views[1::2]
    return flat


def train(m: MlpModel, data: LabeledDataset, cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    """Mini-batch SGD, in place. Returns the model and per-epoch mean loss.

    Batch order is a fresh seeded shuffle each epoch; dropout masks (when the
    model has a nonzero rate) come from per-(epoch, step) derived streams.
    Bit-reproducible for identical seeds. Afterwards the model's weights and
    biases are views into one flat buffer.
    """
    if data.features.shape[1] != m.input_dim:
        raise ShapeMismatchError(f"data dim {data.features.shape[1]}, model expects {m.input_dim}")
    params = _flatten_parameters(m)
    history: list[float] = []
    use_dropout = m.config.dropout_rate > 0.0

    def sample_id(row: int) -> str:
        # row of the batch that starts at `start` in this epoch's `perm`
        return data.ids[perm[start + row]]

    # an overflow or NaN either ends in the NonFiniteLossError or DivergenceError
    # below, which say where, or rounds to the right value (exp(-z) in the
    # softplus derivative); numpy's RuntimeWarning would only add stderr lines
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = cfg.seed.derive(_SHUFFLE_NS, epoch).generator().permutation(data.n)
            features, targets = data.features[perm], data.targets[perm]
            mask_seed = cfg.seed.derive(_MASK_NS, epoch)
            lr = cfg.learning_rate / (1.0 + cfg.lr_decay * epoch)
            epoch_loss = 0.0
            for step, start in enumerate(range(0, data.n, cfg.batch_size)):
                X = features[start : start + cfg.batch_size]
                y = targets[start : start + cfg.batch_size]
                masks = None
                if use_dropout:
                    masks = _hidden_masks_from_generator(m, len(y), mask_seed.derive(step).generator())
                loss, grads = _loss_and_grads(m, X, y, sample_id, cfg.loss, cfg.reg_weight, masks)
                for w, b, (gw, gb) in zip(m.weights, m.biases, grads):
                    w -= lr * gw
                    b -= lr * gb
                if not np.isfinite(params).all():
                    l = next(l for l in range(m.n_layers)
                             if not (np.isfinite(m.weights[l]).all() and np.isfinite(m.biases[l]).all()))
                    raise DivergenceError(
                        f"non-finite parameters in layer {l} at epoch {epoch}, step {step} "
                        f"(last batch loss {loss})"
                    )
                epoch_loss += loss * len(y)
            history.append(epoch_loss / data.n)
    return m, history
