"""Tests for the spike op and surrogate-gradient families."""

import numpy as np
import pytest

from repro.autograd import (
    atan_surrogate,
    boxcar_surrogate,
    fast_sigmoid_surrogate,
    spike,
    straight_through_surrogate,
    tensor,
)
from repro.errors import ConfigError


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestSpikeForward:
    def test_output_is_binary(self, rng):
        x = tensor(rng.standard_normal((4, 7)))
        s = spike(x, fast_sigmoid_surrogate())
        assert set(np.unique(s.data)).issubset({0.0, 1.0})

    def test_threshold_strict(self):
        s = spike(tensor([-0.1, 0.0, 0.1]), fast_sigmoid_surrogate())
        np.testing.assert_array_equal(s.data, [0.0, 0.0, 1.0])

    def test_forward_identical_across_surrogates(self, rng):
        x = tensor(rng.standard_normal((3, 3)))
        outs = [
            spike(x, fam).data
            for fam in (
                fast_sigmoid_surrogate(),
                atan_surrogate(),
                boxcar_surrogate(),
                straight_through_surrogate(),
            )
        ]
        for out in outs[1:]:
            np.testing.assert_array_equal(outs[0], out)


class TestSurrogateBackward:
    def test_fast_sigmoid_formula(self, rng):
        x = tensor(rng.standard_normal((2, 3)), requires_grad=True)
        spike(x, fast_sigmoid_surrogate(scale=25.0)).sum().backward()
        expected = 1.0 / (25.0 * np.abs(x.data) + 1.0) ** 2
        np.testing.assert_allclose(x.grad, expected, rtol=1e-6)

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
        x = tensor(rng.standard_normal((2, 2)), requires_grad=True)
        spike(x, straight_through_surrogate()).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 2)))

    def test_gradient_chains_through_spike(self):
        # d/dv [sum(spike(v - thr))] with surrogate should equal surrogate(v - thr)
        v = tensor([0.5, 1.5], requires_grad=True)
        thr = 1.0
        s = spike(v - thr, fast_sigmoid_surrogate(10.0))
        (s * 2.0).sum().backward()
        expected = 2.0 / (10.0 * np.abs(v.data - thr) + 1.0) ** 2
        np.testing.assert_allclose(v.grad, expected, rtol=1e-6)


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
