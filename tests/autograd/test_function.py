"""Tests for the Function tape node: the engine's one node mechanism."""

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.autograd import Function, Tensor, no_grad
from repro.errors import GradientError
from repro.snn import LIFParameters, kernels


class ScaledMatmul(Function):
    """y = (a @ b) * scale — scale is a non-differentiable python float."""

    calls = 0

    def forward(self, a, b, scale):
        self.a, self.b, self.scale = a, b, scale
        return (a @ b) * scale

    def backward(self, g):
        ScaledMatmul.calls += 1
        return g @ self.b.T * self.scale, self.a.T @ g * self.scale, None


class Returns(Function):
    """Doubles its input; backward returns whatever ``result`` says."""

    def forward(self, a, b, result):
        self.result = result
        return a * 2.0

    def backward(self, g):
        return self.result(g)


@pytest.fixture(autouse=True)
def reset_calls():
    ScaledMatmul.calls = 0


class TestApply:
    def test_forward_value(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        out = ScaledMatmul.apply(a, b, 0.5)
        assert np.allclose(out.data, 1.5)

    def test_gradcheck(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert gradcheck(lambda x, y: ScaledMatmul.apply(x, y, 0.7), [a, b])

    def test_matches_tensor_ops(self):
        rng = np.random.default_rng(1)
        a_data = rng.standard_normal((3, 4)).astype(np.float32)
        b_data = rng.standard_normal((4, 2)).astype(np.float32)
        g = rng.standard_normal((3, 2)).astype(np.float32)

        a1, b1 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        ScaledMatmul.apply(a1, b1, 2.0).backward(g)
        a2, b2 = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        ((a2 @ b2) * 2.0).backward(g)
        assert np.allclose(a1.grad, a2.grad, atol=1e-6)
        assert np.allclose(b1.grad, b2.grad, atol=1e-6)

    def test_no_grad_builds_no_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = ScaledMatmul.apply(a, Tensor(np.ones((2, 2))), 1.0)
        assert not out.requires_grad
        # A graph built on top afterwards never reaches the unrecorded node.
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        (out * w).sum().backward()
        np.testing.assert_array_equal(w.grad, out.data)
        assert a.grad is None
        assert ScaledMatmul.calls == 0

    def test_untracked_inputs_build_no_tape(self):
        out = ScaledMatmul.apply(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), 1.0)
        assert not out.requires_grad

    def test_needs_input_grad_flags(self):
        captured = {}

        class Probe(Function):
            def forward(self, a, b, c):
                captured["needs"] = self.needs_input_grad
                return a + b

            def backward(self, g):
                return g, g, None

        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        Probe.apply(a, b, "meta")
        assert captured["needs"] == (True, False, False)

    def test_gradient_only_reaches_inputs_that_require_it(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 2), 3.0))
        ScaledMatmul.apply(a, b, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 6.0))
        assert b.grad is None


class TestOneBackwardPerNode:
    @pytest.mark.parametrize("alpha", [None, 0.5], ids=["lif", "cuba"])
    def test_lif_node_runs_backward_once(self, monkeypatch, alpha):
        calls = []
        original = kernels._LIFSequence.backward

        def counting(self, g):
            calls.append(self)
            return original(self, g)

        monkeypatch.setattr(kernels._LIFSequence, "backward", counting)
        rng = np.random.default_rng(3)
        x = Tensor((rng.random((6, 2, 5)) < 0.5).astype(np.float32), requires_grad=True)
        w_ff = Tensor(rng.standard_normal((5, 4)).astype(np.float32), requires_grad=True)
        w_rec = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        params = LIFParameters(beta=0.9, threshold=0.5)
        if alpha is None:
            out = kernels.lif_sequence(x, w_ff, params, w_rec=w_rec)
        else:
            out = kernels.cuba_lif_sequence(x, w_ff, params, alpha, w_rec=w_rec)
        out.sum().backward()
        assert len(calls) == 1
        assert all(t.grad is not None for t in (x, w_ff, w_rec))

    def test_fan_out_runs_backward_once(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        y = ScaledMatmul.apply(a, b, 1.0)
        (y * 2.0 + y[0] + y.sum()).sum().backward()
        assert ScaledMatmul.calls == 1

    def test_same_tensor_twice_accumulates_both_gradients(self):
        a = Tensor(np.eye(2), requires_grad=True)
        ScaledMatmul.apply(a, a, 1.0).sum().backward()
        assert ScaledMatmul.calls == 1
        # d/dA sum(A @ A) = 1 @ A^T + A^T @ 1 with A = I.
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))

    def test_each_backward_call_reruns_the_node(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = ScaledMatmul.apply(a, Tensor(np.ones((2, 2))), 1.0).sum()
        loss.backward()
        loss.backward()
        assert ScaledMatmul.calls == 2
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 4.0))


class TestErrors:
    @pytest.mark.parametrize(
        "result",
        [lambda g: (g, None, None, None), lambda g: (g,), lambda g: g],
        ids=["too-many", "too-few", "bare-array"],
    )
    def test_wrong_arity_raises(self, result):
        a = Tensor(np.ones(3), requires_grad=True)
        out = Returns.apply(a, Tensor(np.ones(3)), result)
        with pytest.raises(GradientError, match="3 forward arguments"):
            out.backward(np.ones(3))

    def test_none_for_differentiable_input_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = Returns.apply(a, Tensor(np.ones(3)), lambda g: (None, None, None))
        with pytest.raises(GradientError, match="argument 0"):
            out.backward(np.ones(3))

    def test_none_for_second_differentiable_input_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = Returns.apply(a, b, lambda g: (g * 2.0, None, None))
        with pytest.raises(GradientError, match="argument 1"):
            out.backward(np.ones(3))

    def test_none_for_untracked_inputs_is_allowed(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = Returns.apply(a, Tensor(np.ones(3)), lambda g: (g * 2.0, None, None))
        out.backward(np.ones(3))
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))

    def test_single_argument_may_return_bare_array(self):
        class Double(Function):
            def forward(self, a):
                return a * 2.0

            def backward(self, g):
                return g * 2.0

        assert gradcheck(lambda a: Double.apply(a), [np.arange(3.0)])
