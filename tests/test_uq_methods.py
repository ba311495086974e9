"""Ensemble, MC dropout, and evidential producers against scalar oracles."""

import numpy as np
import pytest

from uqregress import evidential as ev
from uqregress import uq_methods
from uqregress.core import LabeledDataset, RngSeed, split_k_folds, validate_prediction_set
from uqregress.datagen import generate_synthetic
from uqregress.errors import DomainError, FoldTooSmallError, WrongHeadWidthError
from uqregress.neural import MlpConfig, MlpModel, TrainConfig, loss_and_gradient, predict
from uqregress.uq_methods import (
    DropoutSpec,
    EnsembleSpec,
    ensemble_predict,
    evidential_predict,
    mc_dropout_predict,
    train_kfold_members,
)

from test_neural import dataset_from, pinned_head_model


def tiny_spec(k=5, epochs=3, member_training="one_fold_each"):
    return EnsembleSpec(
        k=k,
        member_training=member_training,
        mlp=MlpConfig((2, 8, 1), activation="relu", seed=RngSeed(1)),
        train=TrainConfig(epochs=epochs, batch_size=16, learning_rate=0.01, seed=RngSeed(2)),
    )


def synthetic_pair(n_train=200, n_test=40, dim=2):
    train = generate_synthetic(n_train, dim, RngSeed(11)).dataset
    test = generate_synthetic(n_test, dim, RngSeed(12)).dataset
    return train, test


def shifted_identity(shift):
    """A one-input relu net whose output is exactly x + shift for x >= 0."""
    m = MlpModel.initialize(MlpConfig((1, 1, 1), activation="relu", seed=RngSeed(0)))
    m.weights[0][...], m.biases[0][...] = np.ones((1, 1)), np.zeros(1)
    m.weights[1][...], m.biases[1][...] = np.ones((1, 1)), np.array([shift])
    return m


class TestEnsemble:
    def test_two_member_aggregation_arithmetic(self):
        test = dataset_from(np.array([[0.0]]), np.array([0.5]))
        p = ensemble_predict([shifted_identity(1.0), shifted_identity(3.0)], test)
        assert p.mu[0] == pytest.approx(2.0)
        assert p.sigma[0] == pytest.approx(np.sqrt(2.0))  # Bessel-corrected

    def test_identical_members_give_zero_sigma(self):
        test = dataset_from(np.array([[0.75], [0.875], [1.5]]), np.zeros(3))
        p = ensemble_predict([shifted_identity(-0.5)] * 4, test)
        np.testing.assert_array_equal(p.mu, [0.25, 0.375, 1.0])
        np.testing.assert_array_equal(p.sigma, np.zeros(3))

    @pytest.mark.parametrize("n_members", [0, 1])
    def test_fewer_than_two_members_rejected(self, n_members):
        test = dataset_from(np.array([[0.0]]), np.array([0.5]))
        with pytest.raises(DomainError, match="need >= 2 members for a std"):
            ensemble_predict([shifted_identity(1.0)] * n_members, test)

    @pytest.mark.parametrize("first", ["regression", "evidential"])
    def test_evidential_members_rejected_before_any_prediction(self, first, monkeypatch):
        test = dataset_from(np.array([[0.0]]), np.array([0.5]))
        evidential = MlpModel.initialize(MlpConfig((1, 4, 4), seed=RngSeed(3)))
        members = [shifted_identity(1.0) if first == "regression" else evidential, evidential]
        monkeypatch.setattr(uq_methods, "predict", None)  # calling it would raise TypeError
        with pytest.raises(WrongHeadWidthError, match="1-unit regression heads"):
            ensemble_predict(members, test)

    def test_kfold_produces_valid_prediction_set(self):
        train, test = synthetic_pair()
        p = ensemble_predict(train_kfold_members(train, tiny_spec()), test)
        assert validate_prediction_set(p) is p
        assert p.n == test.n
        np.testing.assert_array_equal(p.y_true, test.targets)

    def test_determinism(self):
        train, test = synthetic_pair()
        a = ensemble_predict(train_kfold_members(train, tiny_spec()), test)
        b = ensemble_predict(train_kfold_members(train, tiny_spec()), test)
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_modes_differ(self):
        train, test = synthetic_pair()
        a, b = (ensemble_predict(train_kfold_members(train, tiny_spec(member_training=mode)), test)
                for mode in ("one_fold_each", "leave_one_fold_out"))
        assert not np.array_equal(a.mu, b.mu)

    def test_leave_one_fold_out_member_data(self, monkeypatch):
        # each member trains on the other folds in fold order, exactly as the
        # hand concatenation below builds them; 23 rows give folds of 6, 6, 6, 5
        train = generate_synthetic(23, 2, RngSeed(11), n_groups=3).dataset
        spec = tiny_spec(k=4, member_training="leave_one_fold_out")
        seen = []
        monkeypatch.setattr(uq_methods, "train", lambda model, data, cfg: seen.append(data))
        train_kfold_members(train, spec)
        folds = split_k_folds(train, spec.k, spec.train.seed.derive(uq_methods._FOLD_NS))
        assert [f.n for f in folds] == [6, 6, 6, 5]
        assert len(seen) == spec.k
        for i, got in enumerate(seen):
            rest = [f for j, f in enumerate(folds) if j != i]
            want = LabeledDataset(
                ids=tuple(rid for f in rest for rid in f.ids),
                features=np.vstack([f.features for f in rest]),
                targets=np.concatenate([f.targets for f in rest]),
                groups=tuple(g for f in rest for g in f.groups),
            )
            assert got.ids == want.ids and got.groups == want.groups
            np.testing.assert_array_equal(got.features, want.features)
            np.testing.assert_array_equal(got.targets, want.targets)

    def test_degenerate_folds_rejected(self):
        train = generate_synthetic(5, 2, RngSeed(3)).dataset  # k = N: folds of one row
        with pytest.raises(FoldTooSmallError):
            train_kfold_members(train, tiny_spec(k=5))

    def test_k_below_two_rejected(self):
        with pytest.raises(DomainError):
            tiny_spec(k=1)


class TestMcDropout:
    def test_zero_rate_reproduces_deterministic_forward_exactly(self):
        train, test = synthetic_pair()
        m = MlpModel.initialize(MlpConfig((2, 8, 1), dropout_rate=0.05, seed=RngSeed(5)))
        p = mc_dropout_predict(m, test, DropoutSpec(samples=10, rate=0.0, seed=RngSeed(6)))
        np.testing.assert_array_equal(p.mu, predict(m, test.features)[:, 0])
        np.testing.assert_array_equal(p.sigma, np.zeros(test.n))

    def test_constant_network_is_noise_free(self):
        # zero weights mean dropout cannot reach the output: mu = bias, sigma = 0
        _, test = synthetic_pair()
        m = MlpModel.initialize(MlpConfig((2, 4, 1), dropout_rate=0.3, seed=RngSeed(7)))
        for l in range(m.n_layers):
            m.weights[l][...] = np.zeros_like(m.weights[l])
            m.biases[l][...] = np.zeros_like(m.biases[l])
        m.biases[-1][...] = np.array([0.42])
        p = mc_dropout_predict(m, test, DropoutSpec(samples=64, rate=0.3, seed=RngSeed(8)))
        np.testing.assert_allclose(p.mu, 0.42)
        np.testing.assert_allclose(p.sigma, 0.0, atol=1e-12)

    def test_determinism_and_seed_sensitivity(self):
        _, test = synthetic_pair()
        m = MlpModel.initialize(MlpConfig((2, 8, 1), dropout_rate=0.2, seed=RngSeed(9)))
        a = mc_dropout_predict(m, test, DropoutSpec(samples=32, rate=0.2, seed=RngSeed(10)))
        b = mc_dropout_predict(m, test, DropoutSpec(samples=32, rate=0.2, seed=RngSeed(10)))
        c = mc_dropout_predict(m, test, DropoutSpec(samples=32, rate=0.2, seed=RngSeed(11)))
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        assert not np.array_equal(a.mu, c.mu)

    def test_masks_are_per_point(self):
        # reordering test rows must not change each point's prediction
        _, test = synthetic_pair(n_test=10)
        m = MlpModel.initialize(MlpConfig((2, 8, 1), dropout_rate=0.2, seed=RngSeed(12)))
        spec = DropoutSpec(samples=16, rate=0.2, seed=RngSeed(13))
        full = mc_dropout_predict(m, test, spec)
        # note: per-(point, sample) streams are keyed by row index, so the
        # contract is order independence of the (index, sample) pair
        again = mc_dropout_predict(m, test, spec)
        np.testing.assert_array_equal(full.mu, again.mu)

    def test_mean_converges_to_mask_expectation_for_linear_net(self):
        # positive weights + positive inputs keep relu linear: E[masked] = unmasked
        rng = np.random.default_rng(14)
        m = MlpModel.initialize(MlpConfig((2, 4, 1), activation="relu",
                                          dropout_rate=0.25, seed=RngSeed(15)))
        for l in range(m.n_layers):
            m.weights[l][...] = rng.uniform(0.1, 1.0, m.weights[l].shape)
            m.biases[l][...] = rng.uniform(0.0, 0.3, m.biases[l].shape)
        X = rng.uniform(0.2, 2.0, size=(3, 2))
        test = dataset_from(X, np.zeros(3))
        p = mc_dropout_predict(m, test, DropoutSpec(samples=100_000, rate=0.25, seed=RngSeed(16)))
        expected = predict(m, X)[:, 0]
        assert np.max(np.abs(p.mu - expected) / expected) < 0.01

    def test_needs_regression_head(self):
        _, test = synthetic_pair()
        m = MlpModel.initialize(MlpConfig((2, 4, 4), seed=RngSeed(17)))
        with pytest.raises(WrongHeadWidthError):
            mc_dropout_predict(m, test, DropoutSpec(samples=8, rate=0.1, seed=RngSeed(18)))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DropoutSpec(samples=1, rate=0.1)
        with pytest.raises(DomainError):
            DropoutSpec(samples=10, rate=0.6)


class TestEvidentialOps:
    def test_nll_probe_value(self):
        assert float(ev.nll_array(1.2, 1.0, 2.0, 1.0, 1.2)) == pytest.approx(0.9808, abs=1e-3)

    def test_nll_minimized_at_gamma_equals_y(self):
        y = 0.4
        base = float(ev.nll_array(y, 1.5, 2.5, 0.8, y))
        for off in (-0.5, -0.1, 0.1, 0.5):
            assert float(ev.nll_array(y + off, 1.5, 2.5, 0.8, y)) > base

    def test_doubling_beta_at_zero_residual_shifts_by_half_log2(self):
        y = 0.0
        a = float(ev.nll_array(y, 1.3, 2.2, 0.7, y))
        b = float(ev.nll_array(y, 1.3, 2.2, 1.4, y))
        assert b - a == pytest.approx(0.5 * np.log(2.0), rel=1e-12)

    def test_regularizer_examples(self):
        assert float(ev.regularizer_array(1.0, 1.0, 2.0, 1.0)) == 0.0
        assert float(ev.regularizer_array(0.0, 1.0, 2.0, 1.0)) == pytest.approx(4.0)
        r1 = float(ev.regularizer_array(0.0, 1.0, 2.0, 0.5))
        r2 = float(ev.regularizer_array(0.0, 1.0, 2.0, 1.0))
        assert r2 == pytest.approx(2.0 * r1)

    def test_uncertainty_channels(self):
        a, e = map(float, ev.uncertainty_channels(1.0, 2.0, 1.0))
        assert a == pytest.approx(1.0)
        assert e == pytest.approx(a)  # nu = 1 collapses the channels
        a2, e2 = map(float, ev.uncertainty_channels(1e9, 2.0, 1.0))
        assert a2 == pytest.approx(1.0)
        assert e2 < 1e-8

    def test_sqrt_option(self):
        a, e = map(float, ev.uncertainty_channels(4.0, 2.0, 1.0, apply_sqrt=True))
        assert a == pytest.approx(1.0)
        assert e == pytest.approx(0.5)

    def test_standalone_loss_matches_training_loss(self):
        # nll + w * reg computed by hand equals the network's batch loss
        m = MlpModel.initialize(MlpConfig((2, 6, 4), activation="tanh", seed=RngSeed(19)))
        batch = dataset_from(np.array([[0.3, -1.2]]), np.array([0.9]))
        g, nu, al, be = ev.head_transform(predict(m, batch.features))
        for w in (0.0, 0.05, 0.2):
            expected = float(ev.nll_array(g, nu, al, be, 0.9)[0]
                             + w * ev.regularizer_array(g, nu, al, 0.9)[0])
            loss, _ = loss_and_gradient(m, batch, reg_weight=w)
            assert loss == pytest.approx(expected, abs=1e-12)


class TestEvidentialPredict:
    def test_pinned_head_prediction(self):
        m = pinned_head_model(0.3, 1.0, 2.0, 1.0, input_dim=2)
        _, test = synthetic_pair(n_test=5)
        p = evidential_predict(m, test)
        np.testing.assert_allclose(p.mu, 0.3, atol=1e-12)
        np.testing.assert_allclose(p.sigma, 1.0, rtol=1e-9)

    def test_channels_differ_by_exactly_nu(self):
        m = MlpModel.initialize(MlpConfig((2, 6, 4), seed=RngSeed(20)))
        _, test = synthetic_pair(n_test=8)
        from uqregress.evidential import head_transform

        nu = head_transform(predict(m, test.features))[1]
        pe = evidential_predict(m, test, uncertainty="epistemic")
        pa = evidential_predict(m, test, uncertainty="aleatoric")
        np.testing.assert_allclose(pe.sigma * nu, pa.sigma, rtol=1e-12)

    def test_output_is_valid(self):
        m = MlpModel.initialize(MlpConfig((2, 6, 4), seed=RngSeed(21)))
        _, test = synthetic_pair(n_test=8)
        assert validate_prediction_set(evidential_predict(m, test))

    def test_wrong_head(self):
        m = MlpModel.initialize(MlpConfig((2, 6, 1), seed=RngSeed(22)))
        _, test = synthetic_pair(n_test=4)
        with pytest.raises(WrongHeadWidthError):
            evidential_predict(m, test)

    def test_unknown_channel(self):
        m = MlpModel.initialize(MlpConfig((2, 6, 4), seed=RngSeed(23)))
        _, test = synthetic_pair(n_test=4)
        with pytest.raises(DomainError):
            evidential_predict(m, test, uncertainty="total")
