"""Reference SGD loop: ``uqregress.neural.train`` as it stood before its step
was slimmed.

Each step gathers its batch by fancy indexing, builds the batch's id tuple,
derives its dropout stream from (epoch, step) in one call, replaces every
weight and bias with a fresh array, and checks each layer for non-finite
values on its own. The forward and backward passes are the ones that loop
ran (bias gradients by ``mean``). ``train`` must give the same weights, the
same loss history and the same errors, bit for bit.
"""

from __future__ import annotations

import numpy as np

from uqregress.core import LabeledDataset
from uqregress.errors import DivergenceError, NonFiniteLossError
from uqregress.neural import (
    _ACTIVATIONS,
    _MASK_NS,
    _SHUFFLE_NS,
    MlpModel,
    TrainConfig,
    _hidden_masks_from_generator,
    _per_sample_loss_and_draw,
)


def _forward(m: MlpModel, X: np.ndarray, masks):
    act, _ = _ACTIVATIONS[m.config.activation]
    a = X
    layer_inputs = [X]
    pre_acts = []
    for l in range(m.n_layers - 1):
        z = a @ m.weights[l] + m.biases[l]
        pre_acts.append(z)
        a = act(z)
        if masks is not None:
            a = a * masks[l]
        layer_inputs.append(a)
    return layer_inputs, pre_acts, a @ m.weights[-1] + m.biases[-1]


def _backward(m: MlpModel, layer_inputs, pre_acts, masks, d_raw: np.ndarray):
    _, act_deriv = _ACTIVATIONS[m.config.activation]
    n = d_raw.shape[0]
    grads_w = [None] * m.n_layers
    grads_b = [None] * m.n_layers
    delta = d_raw
    grads_w[-1] = layer_inputs[-1].T @ delta / n
    grads_b[-1] = delta.mean(axis=0)
    for l in range(m.n_layers - 2, -1, -1):
        delta = delta @ m.weights[l + 1].T
        if masks is not None:
            delta = delta * masks[l]
        delta = delta * act_deriv(pre_acts[l])
        grads_w[l] = layer_inputs[l].T @ delta / n
        grads_b[l] = delta.mean(axis=0)
    return list(zip(grads_w, grads_b))


def _loss_and_grads(m, X, y, ids, loss, reg_weight, masks):
    layer_inputs, pre_acts, raw = _forward(m, X, masks)
    with np.errstate(over="ignore", invalid="ignore"):
        losses, d_raw = _per_sample_loss_and_draw(m, raw, y, loss, reg_weight)
    bad = ~np.isfinite(losses)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteLossError(f"loss is {losses[i]} for sample {ids[i]!r}")
    return float(losses.mean()), _backward(m, layer_inputs, pre_acts, masks, d_raw)


def train(m: MlpModel, data: LabeledDataset, cfg: TrainConfig) -> tuple[MlpModel, list[float]]:
    history: list[float] = []
    use_dropout = m.config.dropout_rate > 0.0
    for epoch in range(cfg.epochs):
        perm = cfg.seed.derive(_SHUFFLE_NS, epoch).generator().permutation(data.n)
        lr = cfg.learning_rate / (1.0 + cfg.lr_decay * epoch)
        epoch_loss = 0.0
        for step, start in enumerate(range(0, data.n, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            X, y = data.features[idx], data.targets[idx]
            batch_ids = tuple(data.ids[i] for i in idx)
            masks = None
            if use_dropout:
                rng = cfg.seed.derive(_MASK_NS, epoch, step).generator()
                masks = _hidden_masks_from_generator(m, len(idx), rng)
            loss, grads = _loss_and_grads(m, X, y, batch_ids, cfg.loss, cfg.reg_weight, masks)
            for l, (gw, gb) in enumerate(grads):
                m.weights[l] = m.weights[l] - lr * gw
                m.biases[l] = m.biases[l] - lr * gb
            for l in range(m.n_layers):
                if not (np.all(np.isfinite(m.weights[l])) and np.all(np.isfinite(m.biases[l]))):
                    raise DivergenceError(
                        f"non-finite parameters in layer {l} at epoch {epoch}, step {step} "
                        f"(last batch loss {loss})"
                    )
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / data.n)
    return m, history
