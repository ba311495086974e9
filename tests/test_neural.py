"""MLP forward/backward correctness: finite-difference oracles, dropout, SGD."""

import warnings

import numpy as np
import pytest

import train_reference as ref
from uqregress.core import LabeledDataset, RngSeed, counter_uniform
from uqregress.datagen import generate_synthetic
from uqregress.errors import (
    DivergenceError,
    DomainError,
    NonFiniteLossError,
    ShapeMismatchError,
    WrongHeadWidthError,
)
from uqregress.evidential import softplus
from uqregress.io import load_checkpoint, save_model
from uqregress.neural import (
    MlpConfig,
    MlpModel,
    TrainConfig,
    _forward_cached,
    _hidden_masks,
    _mask_index,
    _StepMasks,
    loss_and_gradient,
    predict,
    train,
)


def dataset_from(X, y):
    return LabeledDataset(ids=tuple(str(i) for i in range(len(y))), features=X, targets=y)


def random_batch(widths, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, widths[0]))
    y = rng.normal(0, 1, size=n)
    return dataset_from(X, y)


def flatten_params(m):
    return np.concatenate([w.ravel() for w in m.weights] + [b.ravel() for b in m.biases])


def set_params(m, vec):
    i = 0
    for l in range(m.n_layers):
        size = m.weights[l].size
        m.weights[l][...] = vec[i : i + size].reshape(m.weights[l].shape)
        i += size
    for l in range(m.n_layers):
        size = m.biases[l].size
        m.biases[l][...] = vec[i : i + size]
        i += size


def finite_difference_gradient(m, batch, reg_weight, h=1e-5):
    p0 = flatten_params(m)
    fd = np.empty_like(p0)
    for j in range(p0.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            p = p0.copy()
            p[j] += sign * h
            set_params(m, p)
            value, _ = loss_and_gradient(m, batch, reg_weight=reg_weight)
            if slot == 0:
                up = value
            else:
                down = value
        fd[j] = (up - down) / (2 * h)
    set_params(m, p0)
    return fd


def analytic_gradient_vector(grads):
    return np.concatenate([g[0].ravel() for g in grads] + [g[1].ravel() for g in grads])


def max_rel_error(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def inverse_softplus(v):
    return float(np.log(np.expm1(v)))


def pinned_head_model(gamma, nu, alpha, beta, input_dim=1):
    """Zero-weight net whose evidential head always emits the given params."""
    cfg = MlpConfig((input_dim, 2, 4), activation="tanh", seed=RngSeed(0))
    m = MlpModel.initialize(cfg)
    for l in range(m.n_layers):
        m.weights[l][...] = np.zeros_like(m.weights[l])
        m.biases[l][...] = np.zeros_like(m.biases[l])
    m.biases[-1][...] = np.array([
        gamma,
        inverse_softplus(nu - 1e-6),
        inverse_softplus(alpha - 1.0 - 1e-6),
        inverse_softplus(beta - 1e-6),
    ])
    return m


class TestForward:
    """The batch forward pass: ``predict``, and ``loss_and_gradient`` under dropout."""

    def test_zero_network_outputs_zero(self):
        m = MlpModel.initialize(MlpConfig((3, 5, 1), seed=RngSeed(1)))
        for l in range(m.n_layers):
            m.weights[l][...] = np.zeros_like(m.weights[l])
            m.biases[l][...] = np.zeros_like(m.biases[l])
        assert predict(m, np.array([[1.0, -2.0, 3.0]]))[0, 0] == 0.0

    def test_zero_rate_dropout_is_noop(self):
        m = MlpModel.initialize(MlpConfig((2, 6, 1), dropout_rate=0.0, seed=RngSeed(2)))
        batch = random_batch((2, 6, 1), 5, seed=3)
        loss, grads = loss_and_gradient(m, batch, dropout_seed=RngSeed(3))
        want_loss, want_grads = loss_and_gradient(m, batch)
        assert loss == want_loss
        assert all(np.array_equal(a, b) for g, h in zip(grads, want_grads) for a, b in zip(g, h))

    def test_fixed_seed_gives_identical_mask(self):
        m = MlpModel.initialize(MlpConfig((2, 8, 8, 1), dropout_rate=0.5, seed=RngSeed(4)))
        batch = random_batch((2, 8, 8, 1), 6, seed=5)
        a, grads_a = loss_and_gradient(m, batch, dropout_seed=RngSeed(5))
        b, grads_b = loss_and_gradient(m, batch, dropout_seed=RngSeed(5))
        assert a == b
        assert all(np.array_equal(x, y) for g, h in zip(grads_a, grads_b) for x, y in zip(g, h))
        c, _ = loss_and_gradient(m, batch, dropout_seed=RngSeed(6))
        assert a != c
        assert a != loss_and_gradient(m, batch)[0]

    def test_shape_mismatch(self):
        m = MlpModel.initialize(MlpConfig((3, 4, 1), seed=RngSeed(7)))
        for features in ([[1.0, 2.0]], [1.0, 2.0, 3.0]):
            with pytest.raises(ShapeMismatchError):
                predict(m, np.array(features))


class TestConfigValidation:
    def test_needs_hidden_layer(self):
        with pytest.raises(DomainError):
            MlpConfig((3, 1))

    def test_head_width_restricted(self):
        with pytest.raises(WrongHeadWidthError):
            MlpConfig((3, 4, 2))

    def test_dropout_range(self):
        with pytest.raises(DomainError):
            MlpConfig((3, 4, 1), dropout_rate=0.6)

    def test_unknown_activation(self):
        with pytest.raises(DomainError, match="^unknown activation 'gelu'$"):
            MlpConfig((3, 4, 1), activation="gelu")

    def test_reg_weight_above_02_warns(self):
        with pytest.warns(UserWarning, match="0.2") as record:
            TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, reg_weight=0.25)
        assert record[0].filename == __file__  # the caller, not the generated __init__


class TestLossAndGradient:
    def test_perfect_squared_error_is_flat_minimum(self):
        # constant-output net matching a constant target: zero loss, zero grads
        m = MlpModel.initialize(MlpConfig((1, 3, 1), seed=RngSeed(9)))
        for l in range(m.n_layers):
            m.weights[l][...] = np.zeros_like(m.weights[l])
            m.biases[l][...] = np.zeros_like(m.biases[l])
        m.biases[-1][...] = np.array([2.5])
        batch = dataset_from(np.array([[0.1], [0.9]]), np.array([2.5, 2.5]))
        loss, grads = loss_and_gradient(m, batch)
        assert loss == 0.0
        for gw, gb in grads:
            assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_single_parameter_probe_matches_finite_difference(self):
        m = MlpModel.initialize(MlpConfig((2, 8, 1), activation="tanh", seed=RngSeed(10)))
        batch = random_batch((2, 8, 1), 6, seed=11)
        _, grads = loss_and_gradient(m, batch)
        fd = finite_difference_gradient(m, batch, 0.0)
        assert max_rel_error(analytic_gradient_vector(grads), fd) < 1e-5

    @pytest.mark.parametrize("activation", ["relu", "tanh", "softplus"])
    def test_squared_error_gradients(self, activation):
        for seed in range(5):
            m = MlpModel.initialize(MlpConfig((3, 6, 1), activation=activation, seed=RngSeed(seed)))
            batch = random_batch((3, 6, 1), 5, seed=100 + seed)
            _, grads = loss_and_gradient(m, batch)
            fd = finite_difference_gradient(m, batch, 0.0)
            assert max_rel_error(analytic_gradient_vector(grads), fd) < 1e-6

    @pytest.mark.parametrize("reg_weight", [0.0, 0.05, 0.2])
    def test_evidential_gradients(self, reg_weight):
        for seed in range(5):
            m = MlpModel.initialize(MlpConfig((2, 6, 4), activation="tanh", seed=RngSeed(seed)))
            batch = random_batch((2, 6, 4), 5, seed=200 + seed)
            _, grads = loss_and_gradient(m, batch, reg_weight=reg_weight)
            fd = finite_difference_gradient(m, batch, reg_weight)
            assert max_rel_error(analytic_gradient_vector(grads), fd) < 1e-4

    def test_evidential_probe_through_pinned_head(self):
        # head pinned to (gamma, nu, alpha, beta) = (y, 1, 2, 1): loss ~ 0.9808
        y = 0.37
        m = pinned_head_model(y, 1.0, 2.0, 1.0)
        batch = dataset_from(np.array([[0.0]]), np.array([y]))
        loss, _ = loss_and_gradient(m, batch)
        assert loss == pytest.approx(0.9808, abs=1e-3)

    def test_non_finite_loss_names_sample(self):
        m = MlpModel.initialize(MlpConfig((1, 2, 1), seed=RngSeed(14)))
        m.weights[0][...] = np.full_like(m.weights[0], 1e200)
        m.weights[1][...] = np.full_like(m.weights[1], 1e200)
        batch = dataset_from(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(NonFiniteLossError, match="'0'"):
            loss_and_gradient(m, batch)

    def test_non_finite_evidential_head_names_sample(self):
        # the head output itself is reported, before a loss is computed from it
        m = pinned_head_model(0.0, 1.0, 2.0, 1.0)
        m.biases[-1][2] = np.inf
        batch = dataset_from(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        needle = r"network output is \[0.0, .*, inf, .*\] for sample '0'"
        with pytest.raises(NonFiniteLossError, match=needle):
            loss_and_gradient(m, batch)

    def test_softplus_derivative_far_below_zero_warns_nothing(self):
        # exp(-z) overflows below z of about -709, where the logistic is 0
        m = MlpModel.initialize(MlpConfig((1, 2, 1), activation="softplus", seed=RngSeed(17)))
        m.weights[0][:] = -1.0
        loss, grads = loss_and_gradient(m, dataset_from(np.array([[1e4]]), np.array([0.0])))
        assert np.isfinite(loss)
        assert np.array_equal(grads[0][0], [[0.0, 0.0]]) and np.array_equal(grads[0][1], [0.0, 0.0])


class TestDropoutExpectation:
    def test_inverted_dropout_is_unbiased_in_linear_regime(self):
        # relu net kept in its linear region: positive weights, positive input
        cfg = MlpConfig((2, 4, 1), activation="relu", dropout_rate=0.3, seed=RngSeed(15))
        m = MlpModel.initialize(cfg)
        rng = np.random.default_rng(16)
        for l in range(m.n_layers):
            m.weights[l][...] = rng.uniform(0.1, 1.0, m.weights[l].shape)
            m.biases[l][...] = rng.uniform(0.0, 0.5, m.biases[l].shape)
        x = np.array([0.7, 1.3])
        expected = predict(m, x[None, :])[0, 0]
        n_masks = 100_000
        X = np.tile(x, (n_masks, 1))
        masks = _hidden_masks(m, counter_uniform(RngSeed(17), *_mask_index(m, n_masks, 0)), 0.3)
        _, _, raw = _forward_cached(m, X, masks)
        assert abs(raw[:, 0].mean() - expected) / expected < 0.01


class TestLaneMasks:
    """Unit j of a mask reads 16-bit lane j % 4 of the hash of unit j // 4."""

    @pytest.mark.parametrize("widths", [(3, 16, 8, 1), (2, 7, 13, 5, 1), (2, 1, 1)])
    @pytest.mark.parametrize("rate", [0.05, 0.3, 0.5])
    def test_unit_reads_its_lane_in_shift_form(self, widths, rate):
        m = MlpModel(MlpConfig(widths, dropout_rate=rate))
        h = counter_uniform(RngSeed(23, 4), *_mask_index(m, 9, 7))
        assert h.dtype == np.uint64 and h.shape == (len(widths) - 2, 9, -(-max(widths[1:-1]) // 4))
        t = round(rate * 65536)
        for l, (mask, w) in enumerate(zip(_hidden_masks(m, h, rate), widths[1:-1])):
            j = np.arange(w, dtype=np.uint64)
            shift = np.uint64(16) * (j % np.uint64(4))
            lanes = (h[l][:, j // np.uint64(4)] >> shift) & np.uint64(0xFFFF)
            assert np.array_equal(mask, np.where(lanes >= t, 65536 / (65536 - t), 0.0))

    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.3, 0.5])
    def test_mask_mean_is_one_over_every_lane_value(self, rate):
        m = MlpModel(MlpConfig((1, 65536, 1), dropout_rate=rate))
        h = np.arange(65536, dtype="<u2").view("<u8").reshape(1, 1, 16384)
        (mask,) = _hidden_masks(m, h, rate)
        # unit j reads lane value j; t of the 65536 are dropped
        t = round(rate * 65536)
        assert np.array_equal(mask[0], np.where(np.arange(65536) >= t, 65536 / (65536 - t), 0.0))
        assert abs(mask.mean() - 1.0) <= 2 * np.spacing(1.0)

    @pytest.mark.parametrize("rate", [1e-6, 2.0**-17, 2.0**-20])
    def test_rate_that_drops_no_unit_is_refused(self, rate):
        with pytest.raises(DomainError, match=f"dropout_rate {rate} would drop no unit"):
            MlpConfig((2, 4, 1), dropout_rate=rate)

    def test_smallest_rate_that_drops_a_unit(self):
        rate = float(np.nextafter(2.0**-17, 1.0))
        m = MlpModel(MlpConfig((1, 65536, 1), dropout_rate=rate))
        h = np.arange(65536, dtype="<u2").view("<u8").reshape(1, 1, 16384)
        assert np.count_nonzero(_hidden_masks(m, h, rate)[0] == 0.0) == 1

    @pytest.mark.parametrize("widths", [(3, 16, 8, 1), (3, 7, 1)])
    def test_hoisted_training_hashes_equal_the_counter(self, widths):
        # 70 rows in batches of 32: steps 0 and 1 are full, step 2 is ragged
        m = MlpModel(MlpConfig(widths, dropout_rate=0.1))
        draw = _StepMasks(m, 0.1, 32, 3)
        for epoch_seed in (RngSeed(5).derive(2, 0), RngSeed(5).derive(2, 1)):
            draw.start_epoch(epoch_seed)
            for step, rows in ((0, 32), (1, 32), (2, 6)):
                layers = np.arange(len(widths) - 2)[:, None, None]
                units4 = np.arange(-(-max(widths[1:-1]) // 4))
                want = counter_uniform(epoch_seed, np.arange(rows)[:, None], step, layers, units4)
                got = draw.hashes(step, rows)
                assert got.dtype == np.uint64 and np.array_equal(got, want)
                for a, b in zip(draw.masks(step, rows), _hidden_masks(m, want, 0.1)):
                    assert np.array_equal(a, b)


class TestTrain:
    def test_learns_linear_function(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(-3, 3, size=(1000, 1))
        y = 2.0 * X[:, 0] + 1.0
        data = dataset_from(X, y)
        m = MlpModel.initialize(MlpConfig((1, 16, 1), activation="relu", seed=RngSeed(19)))
        _, history = train(m, data, TrainConfig(epochs=200, batch_size=64,
                                                learning_rate=0.05, seed=RngSeed(20)))
        mse = float(np.mean((predict(m, X)[:, 0] - y) ** 2))
        assert mse < 1e-3

    def test_zero_epochs_is_noop(self):
        m = MlpModel.initialize(MlpConfig((2, 4, 1), seed=RngSeed(21)))
        before = [w.copy() for w in m.weights]
        _, history = train(m, random_batch((2, 4, 1), 16, 22),
                           TrainConfig(epochs=0, batch_size=4, learning_rate=0.1))
        assert history == []
        for w0, w1 in zip(before, m.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_identical_seeds_identical_history(self):
        data = random_batch((2, 6, 1), 64, 23)
        histories = []
        for _ in range(2):
            m = MlpModel.initialize(MlpConfig((2, 6, 1), dropout_rate=0.1, seed=RngSeed(24)))
            _, h = train(m, data, TrainConfig(epochs=5, batch_size=8,
                                              learning_rate=0.01, seed=RngSeed(25)))
            histories.append(h)
        assert histories[0] == histories[1]

    def test_loss_nonincreasing_on_noiseless_linear_task(self):
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, size=(256, 1))
        data = dataset_from(X, 0.5 * X[:, 0])
        m = MlpModel.initialize(MlpConfig((1, 8, 1), activation="relu", seed=RngSeed(27)))
        _, h = train(m, data, TrainConfig(epochs=60, batch_size=32,
                                          learning_rate=0.01, seed=RngSeed(28)))
        h = np.asarray(h)
        upticks = np.diff(h) > 0.01 * h[:-1]
        assert not upticks.any()

    def test_data_of_another_width_rejected(self):
        m = MlpModel.initialize(MlpConfig((2, 4, 1), seed=RngSeed(31)))
        with pytest.raises(ShapeMismatchError, match="^data dim 3, model expects 2$"):
            train(m, random_batch((3, 4, 1), 8, 32),
                  TrainConfig(epochs=1, batch_size=4, learning_rate=0.1))

    def test_divergence_guard(self):
        data = random_batch((1, 4, 1), 32, 29)
        m = MlpModel.initialize(MlpConfig((1, 4, 1), seed=RngSeed(30)))
        with pytest.raises((DivergenceError, NonFiniteLossError)):
            train(m, data, TrainConfig(epochs=3, batch_size=8, learning_rate=1e305))

    def test_lr_decay_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, lr_decay=-0.1)

    @pytest.mark.parametrize("field", ["lr_decay", "reg_weight"])
    def test_nan_decay_or_reg_weight_rejected(self, field):
        with pytest.raises(DomainError, match=f"{field} must be finite and >= 0, got nan"):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, **{field: float("nan")})

    @pytest.mark.parametrize("field, rule", [("learning_rate", "> 0"), ("lr_decay", ">= 0"),
                                             ("reg_weight", ">= 0")])
    def test_infinite_rate_decay_or_reg_weight_rejected(self, field, rule):
        # refused by name before training, and before reg_weight's divergence warning
        settings = {"epochs": 1, "batch_size": 1, "learning_rate": 0.1, field: float("inf")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"{field} must be finite and {rule}, got inf"):
                TrainConfig(**settings)


class TestParameterBuffer:
    """Every weight and bias is a view of the model's one ``params`` buffer."""

    @staticmethod
    def assert_views_of_params(m):
        layers = [a for pair in zip(m.weights, m.biases) for a in pair]
        assert all(a.base is m.params for a in layers)
        m.params[:] = np.arange(m.params.size)  # laid out W0, b0, W1, b1, ... in order
        assert np.array_equal(np.concatenate([a.ravel() for a in layers]), m.params)

    def test_views_after_initialize_train_and_load(self, tmp_path):
        cfg = MlpConfig((3, 5, 4, 1), dropout_rate=0.1, seed=RngSeed(40))
        m = MlpModel.initialize(cfg)
        params, before = m.params, m.params.copy()
        train(m, random_batch((3, 5, 4, 1), 32, 41),
              TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=RngSeed(42)))
        assert m.params is params and not np.array_equal(params, before)  # updated in place
        save_model(tmp_path / "m.json", m)
        loaded = load_checkpoint(tmp_path / "m.json")
        assert np.array_equal(loaded.params, m.params)
        for model in (MlpModel.initialize(cfg), m, loaded):
            self.assert_views_of_params(model)

    def test_a_layer_cannot_be_rebound(self):
        m = MlpModel.initialize(MlpConfig((2, 3, 1), seed=RngSeed(43)))
        with pytest.raises(TypeError):
            m.weights[0] = np.zeros((2, 3))
        with pytest.raises(TypeError):
            m.biases[0] = np.zeros(3)


TRAIN_RECIPES = {
    "plain": (MlpConfig((3, 16, 8, 1), activation="relu", seed=RngSeed(31)),
              TrainConfig(epochs=4, batch_size=32, learning_rate=0.02, lr_decay=0.1,
                          seed=RngSeed(32))),
    "dropout": (MlpConfig((3, 16, 8, 1), dropout_rate=0.2, seed=RngSeed(31)),
                TrainConfig(epochs=4, batch_size=32, learning_rate=0.02, seed=RngSeed(32))),
    "evidential": (MlpConfig((3, 16, 8, 4), activation="softplus", seed=RngSeed(31)),
                   TrainConfig(epochs=4, batch_size=32, learning_rate=0.01, reg_weight=0.05,
                               seed=RngSeed(32))),
    "evidential_no_reg": (MlpConfig((3, 16, 8, 4), seed=RngSeed(31)),
                          TrainConfig(epochs=4, batch_size=32, learning_rate=0.01, reg_weight=0.0,
                                      seed=RngSeed(32))),
}


class TestTrainAgainstReference:
    """``train`` against the SGD loop it replaced (tests/train_reference.py)."""

    @pytest.mark.parametrize("recipe", sorted(TRAIN_RECIPES))
    def test_weights_and_history_bit_identical(self, recipe):
        data = generate_synthetic(210, 3, RngSeed(33)).dataset  # a ragged last batch
        mlp, cfg = TRAIN_RECIPES[recipe]
        got, want = MlpModel.initialize(mlp), MlpModel.initialize(mlp)
        _, history = train(got, data, cfg)
        _, ref_history = ref.train(want, data, cfg)
        assert history == ref_history
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("widths, activation, learning_rate, error, needle", [
        ((2, 3, 1), "relu", 30.0, NonFiniteLossError, "loss is inf for sample 'r000082'"),
        # the step overflows layer 1 while layer 0 stays finite
        ((2, 4, 1), "tanh", 1e308, DivergenceError, "in layer 1 at epoch 0, step 0"),
    ])
    def test_divergence_raises_the_same_error(self, widths, activation, learning_rate, error,
                                              needle):
        data = generate_synthetic(100, 2, RngSeed(1)).dataset
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=learning_rate, seed=RngSeed(4))
        m = MlpModel.initialize(MlpConfig(widths, activation=activation, seed=RngSeed(3)))
        with pytest.raises(error) as got:  # and no RuntimeWarning on the way
            train(m, data, cfg)
        m = MlpModel.initialize(MlpConfig(widths, activation=activation, seed=RngSeed(3)))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as want:
            ref.train(m, data, cfg)
        assert str(got.value) == str(want.value)
        assert needle in str(got.value)
