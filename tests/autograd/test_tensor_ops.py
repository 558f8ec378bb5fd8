"""Gradient correctness of every Tensor primitive, checked numerically."""

import numpy as np
import pytest

from gradcheck import gradcheck
from repro.autograd import Tensor, no_grad, stack, tensor, zeros
from repro.autograd.tensor import _unbroadcast
from repro.errors import GradientError, ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# (left shape, right shape): equal, broadcast row/column, vector against
# matrix, and 0-d scalar tensors on either side.
BINARY_SHAPES = [
    ((3, 4), (3, 4)),
    ((3, 1), (1, 4)),
    ((4,), (3, 4)),
    ((3, 4), (4,)),
    ((2, 3, 4), (3, 1)),
    ((), (3, 4)),
    ((3, 4), ()),
]

BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}


class TestElementwise:
    @pytest.mark.parametrize("op", sorted(BINARY_OPS))
    @pytest.mark.parametrize("shapes", BINARY_SHAPES, ids=str)
    def test_binary_gradcheck(self, rng, op, shapes):
        inputs = [rng.standard_normal(shape) for shape in shapes]
        assert gradcheck(BINARY_OPS[op], inputs)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda a: a + 3.0,
            lambda a: 3.0 + a,
            lambda a: a - 2.0,
            lambda a: 1.0 - a,
            lambda a: a * 0.5,
            lambda a: 0.5 * a,
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_python_scalar_operand(self, rng, fn):
        assert gradcheck(fn, [rng.standard_normal((2, 3))])

    def test_array_operand_is_constant(self, rng):
        x = tensor(rng.standard_normal((2, 3)), requires_grad=True)
        other = rng.standard_normal((2, 3)).astype(np.float32)
        (x * other).backward(np.ones((2, 3), dtype=np.float32))
        np.testing.assert_array_equal(x.grad, other)

    def test_scalar_operand_takes_tensor_dtype(self):
        x = tensor(np.ones(2, dtype=np.float32))
        assert (x + 1.0).dtype == np.float32
        assert (x * 2).dtype == np.float32

    def test_same_tensor_both_operands(self, rng):
        assert gradcheck(lambda a: a * a, [rng.standard_normal((3, 2))])
        assert gradcheck(lambda a: a - a, [rng.standard_normal((3, 2))])


class TestMatmul:
    @pytest.mark.parametrize("shapes", [((3, 4), (4, 5)), ((1, 4), (4, 1)), ((4, 1), (1, 3))])
    def test_matrix_matrix(self, rng, shapes):
        inputs = [rng.standard_normal(shape) for shape in shapes]
        assert gradcheck(lambda a, b: a @ b, inputs)

    def test_constant_operand(self, rng):
        w = rng.standard_normal((4, 5))
        assert gradcheck(lambda a: a @ w, [rng.standard_normal((3, 4))])

    @pytest.mark.parametrize(
        "shapes",
        [((4,), (4, 5)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (2, 4, 5)), ((), (4, 5))],
        ids=str,
    )
    def test_rejects_non_2d_operands(self, shapes):
        a, b = (tensor(np.ones(shape)) for shape in shapes)
        with pytest.raises(ShapeError):
            a @ b


class TestReductions:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"axis": 0}, {"axis": 1}, {"axis": -1}, {"axis": (0, 1)},
         {"axis": 1, "keepdims": True}, {"keepdims": True}],
        ids=str,
    )
    def test_sum(self, rng, kwargs):
        assert gradcheck(lambda a: a.sum(**kwargs), [rng.standard_normal((3, 4))])

    @pytest.mark.parametrize(
        "kwargs", [{}, {"axis": 0}, {"axis": 1}, {"axis": (0, 2)}, {"axis": 1, "keepdims": True}],
        ids=str,
    )
    def test_mean(self, rng, kwargs):
        assert gradcheck(lambda a: a.mean(**kwargs), [rng.standard_normal((2, 3, 4))])

    def test_mean_value(self):
        np.testing.assert_allclose(tensor([[1.0, 2.0], [3.0, 6.0]]).mean(axis=0).data, [2.0, 4.0])


class TestIndexingAndStack:
    @pytest.mark.parametrize(
        "index",
        [(slice(1, None), slice(None, 2)), 0, -1, np.array([0, 2, 2]), (Ellipsis, 1)],
        ids=["slice", "int", "negative", "fancy-repeat", "ellipsis"],
    )
    def test_getitem(self, rng, index):
        assert gradcheck(lambda a: a[index], [rng.standard_normal((3, 4))])

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_stack(self, rng, axis):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert gradcheck(lambda a, b: stack([a, b], axis=axis), [a, b])

    def test_stack_mixed_grad_flags(self, rng):
        a = tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = tensor(rng.standard_normal((2, 3)))
        out = stack([a, b, a], axis=0)
        out.backward(np.arange(18, dtype=np.float32).reshape(3, 2, 3))
        upstream = np.arange(18).reshape(3, 2, 3)
        np.testing.assert_array_equal(a.grad, upstream[0] + upstream[2])
        assert b.grad is None

    def test_stack_empty_rejected(self):
        with pytest.raises(ShapeError):
            stack([])


class TestBackwardSemantics:
    def test_grad_accumulates_across_backward_calls(self):
        x = tensor([2.0], requires_grad=True)
        (x * 3.0).backward(np.array([1.0]))
        (x * 3.0).backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        x = tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y + y  # two paths through y
        z.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_intermediate_nodes_keep_their_gradient(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        (y * 2.0).backward(np.ones(2))
        np.testing.assert_allclose(y.grad, [2.0, 2.0])
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_deep_chain_does_not_recurse(self):
        x = tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_on_nongrad_tensor_raises(self):
        with pytest.raises(GradientError):
            tensor([1.0]).backward()

    def test_backward_nonscalar_without_grad_raises(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2.0).backward()

    def test_backward_shape_mismatch_raises(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 2.0).backward(np.ones((3,)))

    def test_zero_grad(self):
        x = tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.array([1.0]))
        x.zero_grad()
        assert x.grad is None

    def test_untracked_operands_build_no_tape(self):
        y = tensor([1.0]) * tensor([2.0]) + 1.0
        assert not y.requires_grad
        with pytest.raises(GradientError):
            y.backward(np.array([1.0]))

    def test_item(self):
        assert tensor([3.5]).item() == pytest.approx(3.5)

    def test_item_nonscalar_raises(self):
        with pytest.raises(ShapeError):
            tensor([1.0, 2.0]).item()

    def test_repr_contains_flag(self):
        assert "requires_grad" in repr(tensor([1.0], requires_grad=True))

    def test_len(self):
        assert len(tensor([[1.0], [2.0]])) == 2

    def test_comparison_returns_bool_array(self):
        x = tensor([1.0, -1.0])
        assert (x > 0).dtype == bool
        assert (x >= 0).tolist() == [True, False]
        assert (x < 0).tolist() == [False, True]
        assert (x <= -1).tolist() == [False, True]


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        x = tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        # Nothing was recorded: a later graph through y cannot reach x.
        w = tensor([3.0], requires_grad=True)
        (y * w).backward(np.array([1.0]))
        assert x.grad is None
        np.testing.assert_allclose(w.grad, [2.0])

    def test_no_grad_leaf_does_not_require_grad(self):
        with no_grad():
            assert not tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_restores_state(self):
        with no_grad():
            with no_grad():
                pass
            assert not tensor([1.0], requires_grad=True).requires_grad
        assert tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert tensor([1.0], requires_grad=True).requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_sum_leading(self):
        g = np.ones((5, 3, 4))
        assert _unbroadcast(g, (3, 4)).shape == (3, 4)

    def test_sum_kept_dims(self):
        g = np.ones((3, 4))
        out = _unbroadcast(g, (3, 1))
        assert out.shape == (3, 1)
        np.testing.assert_allclose(out, 4.0 * np.ones((3, 1)))

    def test_scalar_target(self):
        g = np.ones((2, 2))
        out = _unbroadcast(g, ())
        assert out.shape == ()
        assert out == 4.0


class TestCreation:
    def test_zeros(self):
        z = zeros((2, 3), requires_grad=True)
        assert z.data.sum() == 0.0 and z.dtype == np.float32 and z.requires_grad

    def test_default_dtype_is_float32(self):
        assert tensor([1, 2, 3]).dtype == np.float32

    def test_float64_preserved(self):
        assert tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_tensor_from_tensor(self):
        a = tensor([1.0, 2.0])
        b = Tensor(a)
        np.testing.assert_array_equal(a.data, b.data)
