"""The dropout-mask counter against the broadcast-first reference.

``counter_uniform`` hashes each index array at its own shape; the reference
broadcasts every index to the full shape before hashing. Both must give the
same uniforms bit for bit, and the same broadcast shape, for any seed, stream
and 64-bit index, and MC dropout built on them must give the same mu and sigma.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import counter_reference as ref
from uqregress.core import RngSeed, _chain, counter_uniform
from uqregress.neural import _ACTIVATIONS, MlpConfig, MlpModel
from uqregress.uq_methods import DropoutSpec, mc_dropout_predict

from test_neural import dataset_from

EDGE = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)
u64 = st.one_of(st.sampled_from(EDGE), st.integers(0, 2**64 - 1))
seeds = st.builds(RngSeed, u64, u64)
SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _array(values, shape):
    return np.array(values, dtype=np.uint64).reshape(shape)


@st.composite
def index_sets(draw):
    """Index argument lists: scalars, an (n, 1) x (1, m) grid, or 3-D mixes."""
    kind = draw(st.sampled_from(("scalar", "grid", "cube")))
    if kind == "scalar":
        return draw(st.lists(u64, min_size=0, max_size=4))
    if kind == "grid":
        n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        rows = draw(st.lists(u64, min_size=n, max_size=n))
        cols = draw(st.lists(u64, min_size=m, max_size=m))
        mid = draw(st.lists(u64, min_size=0, max_size=2))
        return [_array(rows, (n, 1)), *mid, _array(cols, (1, m))]
    a, b, c = (draw(st.integers(1, 3)) for _ in range(3))
    shapes = draw(st.permutations([(a, 1, 1), (1, b, 1), (1, 1, c), (a, b, c), (b, c), ()]))
    out = []
    for shape in shapes[: draw(st.integers(1, 6))]:
        size = int(np.prod(shape, dtype=int))
        out.append(_array(draw(st.lists(u64, min_size=size, max_size=size)), shape))
    return out


class TestCounterUniform:
    @SETTINGS
    @given(seed=seeds, indices=index_sets())
    def test_matches_broadcast_first_reference(self, seed, indices):
        got = counter_uniform(seed, *indices)
        want = ref.counter_uniform(seed, *indices)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    @SETTINGS
    @given(seed=seeds, indices=st.lists(u64, min_size=0, max_size=4))
    def test_matches_python_int_splitmix(self, seed, indices):
        assert counter_uniform(seed, *indices) == ref.counter_uniform_int(seed, *indices)

    @SETTINGS
    @given(x=u64, path=st.lists(u64, min_size=0, max_size=4))
    def test_splitmix64_matches_python_int(self, x, path):
        # the chain x <- splitmix64(x ^ splitmix64(i)) on a numpy scalar, on an
        # array, and through RngSeed.derive, which reduces each index mod 2**64
        want = x
        for i in path:
            want = ref.splitmix64_int(want ^ ref.splitmix64_int(i))
        assert int(_chain(np.uint64(x), path)) == want
        arrays = [np.array([i], dtype=np.uint64) for i in path]
        assert int(_chain(np.array([x], dtype=np.uint64), arrays)[0]) == want
        assert RngSeed(0, x).derive(*path).stream_id == want
        assert RngSeed(0, x).derive(*(i - 2**64 for i in path)).stream_id == want

    def test_dropout_shaped_call_matches(self):
        seed = RngSeed(2**64 - 1, 2**64 - 1)
        points = np.arange(300, dtype=np.uint64)[:, None]
        units = np.arange(32, dtype=np.uint64)[None, :]
        for sample, layer in ((0, 0), (999, 1), (2**64 - 1, 2**64 - 1)):
            args = (points, np.uint64(sample), np.uint64(layer), units)
            got = counter_uniform(seed, *args)
            assert got.shape == (300, 32)
            assert np.array_equal(got, ref.counter_uniform(seed, *args))
            buf = np.full((300, 32), np.nan)
            assert counter_uniform(seed, *args, out=buf) is buf
            assert np.array_equal(buf, got)


class TestMcDropoutAgainstReference:
    @pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
    @pytest.mark.parametrize("rate", [0.05, 0.5])
    def test_mu_and_sigma_bit_identical(self, activation, rate):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        test = dataset_from(X, np.zeros(40))
        m = MlpModel.initialize(MlpConfig((3, 16, 8, 1), activation=activation,
                                          dropout_rate=rate, seed=RngSeed(18)))
        spec = DropoutSpec(samples=25, rate=rate, seed=RngSeed(19, 3))
        p = mc_dropout_predict(m, test, spec)
        mu, sigma = ref.mc_dropout_reference(m, X, rate, spec.seed, spec.samples)
        assert np.array_equal(p.mu, mu)
        assert np.array_equal(p.sigma, sigma)

    @pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
    @pytest.mark.parametrize("rate", [0.01, 0.3])
    @pytest.mark.parametrize("widths", [(3, 16, 48, 8, 1), (3, 7, 1)])
    def test_unequal_and_single_hidden_widths(self, widths, rate, activation):
        # one counter call covers every layer at the widest width; each
        # narrower layer must still see exactly its own units' uniforms
        X = np.random.default_rng(20).normal(size=(30, 3))
        test = dataset_from(X, np.zeros(30))
        m = MlpModel.initialize(MlpConfig(widths, activation=activation,
                                          dropout_rate=rate, seed=RngSeed(21)))
        spec = DropoutSpec(samples=20, rate=rate, seed=RngSeed(22, 5))
        p = mc_dropout_predict(m, test, spec)
        mu, sigma = ref.mc_dropout_reference(m, X, rate, spec.seed, spec.samples)
        assert np.array_equal(p.mu, mu)
        assert np.array_equal(p.sigma, sigma)
