"""Tests for the fast-sigmoid surrogate gradient.

It is the pseudo-derivative the LIF pass's backward evaluates on
``V - Vthr`` in place of the Heaviside's derivative.
"""

import numpy as np
import pytest

from repro.autograd import fast_sigmoid_surrogate


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestSurrogateBackward:
    def test_fast_sigmoid_formula(self, rng):
        x = rng.standard_normal((2, 3))
        expected = 1.0 / (25.0 * np.abs(x) + 1.0) ** 2
        np.testing.assert_allclose(fast_sigmoid_surrogate(x), expected, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fast_sigmoid_in_place_is_bitwise_the_formula(self, rng, dtype):
        x = np.concatenate(
            [[0.0, -0.0, 1e-30, -1e-8, 3.0e4, -1e19, 1e30], rng.standard_normal(64)]
        ).astype(dtype)
        with np.errstate(over="ignore"):  # float32 squares of 2.5e20 overflow
            got = fast_sigmoid_surrogate(x)
            want = 1.0 / (25.0 * np.abs(x) + 1.0) ** 2
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert x[0] == 0.0  # the input is not overwritten

    def test_fast_sigmoid_accepts_zero_dim(self):
        assert fast_sigmoid_surrogate(np.array(0.04)) == 0.25

    def test_fast_sigmoid_peak_at_threshold(self):
        assert fast_sigmoid_surrogate(np.array([0.0])) == pytest.approx(1.0)
        assert fast_sigmoid_surrogate(np.array([1.0])) < 0.01

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fast_sigmoid_is_elementwise_in_dtype(self, rng, dtype):
        """The fused backward evaluates the surrogate once over the
        ``[T, B, N]`` stack, the oracle once per step: elementwise in the
        input's dtype, both get the same bits."""
        x = rng.standard_normal((5, 3, 4)).astype(dtype)
        whole = fast_sigmoid_surrogate(x)
        assert whole.dtype == dtype and whole.shape == x.shape
        for t in range(x.shape[0]):
            assert whole[t].tobytes() == fast_sigmoid_surrogate(x[t]).tobytes()

    def test_fast_sigmoid_is_positive_and_peaks_at_threshold(self):
        d = fast_sigmoid_surrogate(np.array([-0.2, -0.01, 0.0, 0.01, 0.2]))
        assert np.all(d >= 0.0)
        assert d[2] == d.max() > 0.0
