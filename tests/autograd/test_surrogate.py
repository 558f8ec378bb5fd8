"""Tests for the surrogate-gradient families.

Each family is the pseudo-derivative the LIF pass's backward evaluates
on ``V - Vthr`` in place of the Heaviside's derivative.
"""

import numpy as np
import pytest

from repro.autograd import (
    atan_surrogate,
    boxcar_surrogate,
    fast_sigmoid_surrogate,
    straight_through_surrogate,
)
from repro.errors import ConfigError


FAMILIES = [
    fast_sigmoid_surrogate,
    atan_surrogate,
    boxcar_surrogate,
    straight_through_surrogate,
]


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestSurrogateBackward:
    def test_fast_sigmoid_formula(self, rng):
        x = rng.standard_normal((2, 3))
        expected = 1.0 / (25.0 * np.abs(x) + 1.0) ** 2
        np.testing.assert_allclose(fast_sigmoid_surrogate(scale=25.0)(x), expected, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fast_sigmoid_in_place_is_bitwise_the_formula(self, rng, dtype):
        x = np.concatenate(
            [[0.0, -0.0, 1e-30, -1e-8, 3.0e4, -1e19, 1e30], rng.standard_normal(64)]
        ).astype(dtype)
        with np.errstate(over="ignore"):  # float32 squares of 2.5e20 overflow
            got = fast_sigmoid_surrogate(scale=25.0)(x)
            want = 1.0 / (25.0 * np.abs(x) + 1.0) ** 2
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert x[0] == 0.0  # the input is not overwritten

    def test_fast_sigmoid_accepts_zero_dim(self):
        assert fast_sigmoid_surrogate(scale=25.0)(np.array(0.04)) == 0.25

    def test_fast_sigmoid_peak_at_threshold(self):
        fam = fast_sigmoid_surrogate(scale=25.0)
        assert fam(np.array([0.0])) == pytest.approx(1.0)
        assert fam(np.array([1.0])) < 0.01

    def test_atan_symmetric(self):
        fam = atan_surrogate(alpha=2.0)
        x = np.array([-0.5, 0.5])
        d = fam(x)
        assert d[0] == pytest.approx(d[1])

    def test_boxcar_support(self):
        fam = boxcar_surrogate(width=0.5)
        d = fam(np.array([-0.3, -0.2, 0.0, 0.2, 0.3]))
        np.testing.assert_allclose(d, [0.0, 2.0, 2.0, 2.0, 0.0])

    def test_straight_through_passes_gradient(self, rng):
        x = rng.standard_normal((2, 2)).astype(np.float32)
        d = straight_through_surrogate()(x)
        assert d.dtype == np.float32
        np.testing.assert_array_equal(d, np.ones((2, 2)))

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_family_is_elementwise_in_dtype(self, rng, make, dtype):
        """The fused backward evaluates a family once over the ``[T, B, N]``
        stack, the oracle once per step: an elementwise family in the
        input's dtype gives both the same bits."""
        x = rng.standard_normal((5, 3, 4)).astype(dtype)
        whole = make()(x)
        assert whole.dtype == dtype and whole.shape == x.shape
        for t in range(x.shape[0]):
            assert whole[t].tobytes() == make()(x[t]).tobytes()

    @pytest.mark.parametrize("make", FAMILIES, ids=lambda f: f.__name__)
    def test_family_is_positive_and_peaks_at_threshold(self, make):
        d = make()(np.array([-0.2, -0.01, 0.0, 0.01, 0.2]))
        assert np.all(d >= 0.0)
        assert d[2] == d.max() > 0.0


class TestValidation:
    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            fast_sigmoid_surrogate(scale=0.0)

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            atan_surrogate(alpha=-1.0)

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            boxcar_surrogate(width=0.0)

    def test_spec_names(self):
        assert "fast_sigmoid" in fast_sigmoid_surrogate().name
        assert "atan" in atan_surrogate().name
        assert "boxcar" in boxcar_surrogate().name
        assert straight_through_surrogate().name == "straight_through"
