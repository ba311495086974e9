"""Small fully connected regression network with hand-written backprop.

Forward/backward passes, inverted dropout, and plain mini-batch SGD are
implemented directly on numpy arrays so every gradient is analytic and
checkable against finite differences. The output head is either 1 unit
(plain regression, squared-error loss) or 4 units (evidential head).
Hidden layers carry the activation and dropout; the output layer is linear.
Parameters live in one float64 buffer, each gradient in one of the same layout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import evidential as ev
from .core import LabeledDataset, RngSeed, check_count, check_size, counter_uniform
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
    "softplus": (ev.softplus, ev.sigmoid),
}

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
        widths = tuple(check_count(w, "layer width", 1) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 3:
            raise DomainError("need at least one hidden layer (input, hidden..., output)")
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
    """SGD settings. The model's head picks the loss: squared error for the
    1-unit head, the evidential NLL (plus ``reg_weight`` times its
    regularizer) for the 4-unit head."""

    epochs: int
    batch_size: int
    learning_rate: float
    reg_weight: float = 0.0
    lr_decay: float = 0.0  # lr at epoch e is learning_rate / (1 + lr_decay * e)
    seed: RngSeed = RngSeed(0)

    def __post_init__(self) -> None:
        check_count(self.epochs, "epochs")
        check_count(self.batch_size, "batch_size", 1)
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails too
            raise DomainError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.lr_decay < np.inf:
            raise DomainError(f"lr_decay must be finite and >= 0, got {self.lr_decay}")
        if not 0.0 <= self.reg_weight < np.inf:
            raise DomainError(f"reg_weight must be finite and >= 0, got {self.reg_weight}")
        if self.reg_weight > 0.2:
            warnings.warn(
                f"evidential regularization weight {self.reg_weight} > 0.2 is prone to divergence",
                stacklevel=3,  # past the dataclass-generated __init__, to its caller
            )


def _layer_views(flat: np.ndarray, widths) -> tuple[tuple, tuple]:
    """Each layer's (fan_in, fan_out) weight and (fan_out,) bias as views of
    ``flat``, which holds them layer by layer: W0, b0, W1, b1, ..."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out))
        start += fan_in * fan_out
        biases.append(flat[start : start + fan_out])
        start += fan_out
    return tuple(weights), tuple(biases)


class MlpModel:
    """An architecture and its parameters, all in one float64 buffer ``params``
    (zero until set); mutated only by :func:`train`. The ``weights`` and
    ``biases`` tuples hold each layer's views of the buffer."""

    def __init__(self, config: MlpConfig) -> None:
        w = config.layer_widths
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(w[:-1], w[1:]))
        self.config = config
        self.params = np.zeros(check_size(size, f"the parameter count of layer widths {w}"))
        self.weights, self.biases = _layer_views(self.params, w)

    @classmethod
    def initialize(cls, config: MlpConfig) -> "MlpModel":
        """Kaiming-style scaled-uniform weights and zero biases, seeded by config.seed."""
        rng = config.seed.generator()
        m = cls(config)
        for w in m.weights:
            bound = np.sqrt(6.0 / w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return m

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.config.layer_widths[0]


def _mask_index(m: MlpModel, points: int, sample: int) -> tuple[np.ndarray, ...]:
    """Counter coordinates (point, sample, layer, unit) of one pass's dropout
    masks; they broadcast to (hidden layers, points, widest hidden layer)."""
    hidden = m.config.layer_widths[1:-1]
    return (np.arange(points, dtype=np.uint64)[:, None], np.uint64(sample),
            np.arange(len(hidden), dtype=np.uint64)[:, None, None],
            np.arange(max(hidden), dtype=np.uint64))


def _hidden_masks(m: MlpModel, u: np.ndarray, rate: float) -> list[np.ndarray]:
    """Inverted-dropout masks of every hidden layer, written over the
    uniforms ``u`` drawn at :func:`_mask_index`: a unit is kept when its
    uniform is >= rate and then scaled by 1/(1-rate)."""
    np.multiply(u >= rate, 1.0 / (1.0 - rate), out=u)
    return [u[l, :, :w] for l, w in enumerate(m.config.layer_widths[1:-1])]


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


def _backward(m: MlpModel, layer_inputs, pre_acts, masks, d_raw: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean loss given per-sample d(loss)/d(raw), in a
    buffer laid out like ``m.params``."""
    _, act_deriv = _ACTIVATIONS[m.config.activation]
    grad = np.empty_like(m.params)
    grads_w, grads_b = _layer_views(grad, m.config.layer_widths)
    delta = d_raw
    for l in range(m.n_layers - 1, -1, -1):
        np.matmul(layer_inputs[l].T, delta, out=grads_w[l])
        np.sum(delta, axis=0, out=grads_b[l])
        if l > 0:
            delta = delta @ m.weights[l].T
            if masks is not None:
                delta = delta * masks[l - 1]
            delta = delta * act_deriv(pre_acts[l - 1])
    grad /= len(d_raw)  # sums to batch means
    return grad


def predict(m: MlpModel, features: np.ndarray) -> np.ndarray:
    """Deterministic batch forward (dropout off). Returns (n, out_width)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.input_dim:
        raise ShapeMismatchError(f"features shape {X.shape}, expected (n, {m.input_dim})")
    _, _, raw = _forward_cached(m, X, None)
    return raw


def _per_sample_loss_and_draw(m: MlpModel, raw: np.ndarray, y: np.ndarray, reg_weight: float):
    """Per-sample loss and d(loss)/d(raw) of the loss the model's head takes."""
    if m.config.head == "plain":
        resid = raw[:, 0] - y
        return resid**2, (2.0 * resid)[:, None]
    gamma, nu, alpha, beta = ev.head_transform(raw)
    losses = ev.nll_array(gamma, nu, alpha, beta, y)
    d_params = np.stack(ev.nll_gradients(gamma, nu, alpha, beta, y), axis=1)
    if reg_weight != 0.0:
        losses = losses + reg_weight * ev.regularizer_array(gamma, nu, alpha, y)
        d_params += reg_weight * np.stack(ev.regularizer_gradients(gamma, nu, alpha, y), axis=1)
    return losses, d_params * ev.head_transform_derivatives(raw)


def _loss_and_grads(m, X, y, sample_id, reg_weight, masks):
    """Batch-mean loss and its gradient, laid out like ``m.params``;
    ``sample_id(row)`` names a batch row and is called only to report a
    non-finite loss."""
    layer_inputs, pre_acts, raw = _forward_cached(m, X, masks)
    if not np.isfinite(raw).all():  # the evidential head's domain checks would not name the sample
        i = int(np.argmax(~np.isfinite(raw).all(axis=1)))
        raise NonFiniteLossError(f"network output is {raw[i].tolist()} for sample {sample_id(i)!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # guarded just below
        losses, d_raw = _per_sample_loss_and_draw(m, raw, y, reg_weight)
    bad = ~np.isfinite(losses)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteLossError(f"loss is {losses[i]} for sample {sample_id(i)!r}")
    return float(losses.mean()), _backward(m, layer_inputs, pre_acts, masks, d_raw)


def loss_and_gradient(
    m: MlpModel,
    batch: LabeledDataset,
    reg_weight: float = 0.0,
    dropout_seed: RngSeed | None = None,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Mean loss over the batch and analytic gradients for every parameter.

    The model's head picks the loss: squared error for the 1-unit head, the
    evidential NLL plus ``reg_weight`` times its regularizer for the 4-unit
    head. Gradients come back as one (dW, db) pair per layer, matching the batch
    mean exactly (finite-difference checkable). Dropout masks, if requested,
    are fixed by ``dropout_seed`` (sample 0, one point per batch row) so the
    loss stays deterministic.
    """
    if batch.n == 0:
        raise DomainError("the loss is a mean over the batch, which has no rows")
    masks = None
    rate = m.config.dropout_rate
    if dropout_seed is not None and rate > 0.0:
        masks = _hidden_masks(m, counter_uniform(dropout_seed, *_mask_index(m, batch.n, 0)), rate)
    loss, grad = _loss_and_grads(m, batch.features, batch.targets, batch.ids.__getitem__,
                                 reg_weight, masks)
    return loss, list(zip(*_layer_views(grad, m.config.layer_widths)))


def train(m: MlpModel, data: LabeledDataset, cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    """Mini-batch SGD, in place. Returns the model and per-epoch mean loss.

    The loss is the one the model's head takes (see :class:`TrainConfig`).
    Batch order is a fresh seeded shuffle each epoch; dropout masks (when the
    model has a nonzero rate) come from the counter under a per-epoch seed,
    keyed by (batch row, step, layer, unit).
    Bit-reproducible for identical seeds.
    """
    if data.features.shape[1] != m.input_dim:
        raise ShapeMismatchError(f"data dim {data.features.shape[1]}, model expects {m.input_dim}")
    if data.n == 0:
        raise DomainError("training needs at least one row")
    history: list[float] = []
    rate = m.config.dropout_rate

    def sample_id(row: int) -> str:
        # row of the batch that starts at `start` in this epoch's `perm`
        return data.ids[perm[start + row]]

    # an overflow or NaN ends in the NonFiniteLossError or DivergenceError below,
    # which say where; numpy's RuntimeWarning would only add stderr lines
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
                if rate > 0.0:
                    masks = _hidden_masks(m, counter_uniform(mask_seed, *_mask_index(m, len(y), step)),
                                          rate)
                loss, grad = _loss_and_grads(m, X, y, sample_id, cfg.reg_weight, masks)
                m.params -= lr * grad
                if not np.isfinite(m.params).all():
                    l = next(l for l in range(m.n_layers)
                             if not (np.isfinite(m.weights[l]).all() and np.isfinite(m.biases[l]).all()))
                    raise DivergenceError(
                        f"non-finite parameters in layer {l} at epoch {epoch}, step {step} "
                        f"(last batch loss {loss})"
                    )
                epoch_loss += loss * len(y)
            history.append(epoch_loss / data.n)
    return m, history
