"""Reference SGD loop: ``uqregress.neural.train`` as it stood before its step
was slimmed.

Each step gathers its batch by fancy indexing, builds the batch's id tuple,
draws each hidden layer's 16-bit lane dropout mask with its own counter call, replaces
every weight and bias with a fresh array, and checks each layer for non-finite
values on its own. The forward and backward passes are the ones that loop
ran (bias gradients by ``mean``), and the evidential head's gradient is
summed partial by partial before it is stacked. ``train`` must give the same
weights, the same loss history and the same errors, bit for bit.
"""

from __future__ import annotations

import numpy as np

from uqregress import evidential as ev
from uqregress.core import LabeledDataset, counter_uniform
from uqregress.errors import DivergenceError, NonFiniteLossError
from uqregress.neural import _ACTIVATIONS, _MASK_NS, _SHUFFLE_NS, MlpModel, TrainConfig


def _masks(m: MlpModel, seed, step: int, n: int) -> list[np.ndarray]:
    """Each hidden layer's mask keyed by (batch row, step, layer, unit // 4):
    unit j is kept when bits 16·(j % 4) onward of its hash, as a 16-bit
    value, are >= t = round(rate · 65536), and is scaled by 65536 / (65536 - t)."""
    rate = m.config.dropout_rate
    t = round(rate * 65536)
    rows = np.arange(n, dtype=np.uint64)[:, None]
    masks = []
    for l, w in enumerate(m.config.layer_widths[1:-1]):
        j = np.arange(w, dtype=np.uint64)
        h = counter_uniform(seed, rows, np.uint64(step), np.uint64(l), j // np.uint64(4))
        lanes = (h >> (np.uint64(16) * (j % np.uint64(4)))) & np.uint64(0xFFFF)
        masks.append((lanes >= t).astype(np.float64) * (65536 / (65536 - t)))
    return masks


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


def _per_sample_loss_and_draw(m: MlpModel, raw: np.ndarray, y: np.ndarray, reg_weight: float):
    if m.config.head == "plain":
        resid = raw[:, 0] - y
        return resid**2, (2.0 * resid)[:, None]
    gamma, nu, alpha, beta = ev.head_transform(raw)
    losses = ev.nll_array(gamma, nu, alpha, beta, y)
    dg, dn, da, db = ev.nll_gradients(gamma, nu, alpha, beta, y)
    if reg_weight != 0.0:
        losses = losses + reg_weight * ev.regularizer_array(gamma, nu, alpha, y)
        rg, rn, ra, rb = ev.regularizer_gradients(gamma, nu, alpha, y)
        dg, dn, da, db = dg + reg_weight * rg, dn + reg_weight * rn, da + reg_weight * ra, db + reg_weight * rb
    d_params = np.stack([dg, dn, da, db], axis=1)
    return losses, d_params * ev.head_transform_derivatives(raw)


def _loss_and_grads(m, X, y, ids, reg_weight, masks):
    layer_inputs, pre_acts, raw = _forward(m, X, masks)
    with np.errstate(over="ignore", invalid="ignore"):
        losses, d_raw = _per_sample_loss_and_draw(m, raw, y, reg_weight)
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
            batch_ids = tuple(data.ids[i].decode() for i in idx)
            masks = None
            if use_dropout:
                masks = _masks(m, cfg.seed.derive(_MASK_NS, epoch), step, len(idx))
            loss, grads = _loss_and_grads(m, X, y, batch_ids, cfg.reg_weight, masks)
            for l, (gw, gb) in enumerate(grads):
                m.weights[l][...] = m.weights[l] - lr * gw
                m.biases[l][...] = m.biases[l] - lr * gb
            for l in range(m.n_layers):
                if not (np.all(np.isfinite(m.weights[l])) and np.all(np.isfinite(m.biases[l]))):
                    raise DivergenceError(
                        f"non-finite parameters in layer {l} at epoch {epoch}, step {step} "
                        f"(last batch loss {loss})"
                    )
            epoch_loss += loss * len(idx)
        history.append(epoch_loss / data.n)
    return m, history
