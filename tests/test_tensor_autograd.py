"""Unit tests for the autograd engine: ops, gradients, tape mechanics."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    concat,
    is_grad_enabled,
    no_grad,
    softmax,
    zeros,
)
from repro.tensor.ops import log_softmax


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued f at x (ndarray)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, x_data, seed=0):
    """Compare autograd to numerical gradients for op: Tensor -> Tensor."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x)
    out.sum().backward()
    num = numerical_grad(lambda arr: float(op(Tensor(arr)).numpy().sum()), x_data.copy())
    np.testing.assert_allclose(x.grad, num, rtol=1e-4, atol=1e-6)


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_requires_grad_flag(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert t.requires_grad

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.arange(3), requires_grad=True)

    def test_detach_cuts_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_item_on_scalar(self):
        assert Tensor(np.array(2.5)).item() == 2.5

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12

    def test_repr_mentions_shape(self):
        assert "shape=(2, 2)" in repr(Tensor(np.zeros((2, 2))))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


class TestArithmeticGradients:
    def test_add(self):
        check_gradient(lambda x: x + x * 2, np.random.default_rng(0).standard_normal((3, 4)))

    def test_sub(self):
        check_gradient(lambda x: x - x * 0.5, np.random.default_rng(1).standard_normal((3, 4)))

    def test_mul(self):
        check_gradient(lambda x: x * x, np.random.default_rng(2).standard_normal((3, 4)))

    def test_div(self):
        data = np.random.default_rng(3).standard_normal((3, 4)) + 5.0
        check_gradient(lambda x: x / 2.0, data)

    def test_rdiv(self):
        data = np.abs(np.random.default_rng(4).standard_normal((3,))) + 1.0
        check_gradient(lambda x: 1.0 / x, data)

    def test_neg(self):
        check_gradient(lambda x: -x, np.random.default_rng(5).standard_normal((2, 3)))

    def test_pow(self):
        data = np.abs(np.random.default_rng(6).standard_normal((3, 2))) + 0.5
        check_gradient(lambda x: x**3, data)

    def test_matmul(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 2))
        check_gradient(lambda x: x @ Tensor(w), rng.standard_normal((3, 4)))

    def test_matmul_grad_of_rhs(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        (x @ w).sum().backward()
        np.testing.assert_allclose(w.grad, x.numpy().T @ np.ones((3, 2)))

    def test_transpose(self):
        check_gradient(lambda x: x.T @ Tensor(np.ones((3, 2))), np.random.default_rng(9).standard_normal((3, 4)))

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((5, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [5.0, 5.0, 5.0])

    def test_broadcast_mul_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))

    def test_radd_with_plain_number(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (1.0 + x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_rsub(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (5.0 - x).sum().backward()
        np.testing.assert_allclose(x.grad, -np.ones(3))


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        check_gradient(
            lambda x: x.reshape(2, 6) @ Tensor(np.ones((6, 1))),
            np.random.default_rng(10).standard_normal((2, 3, 2)),
        )

    def test_reshape_does_not_copy(self):
        x = Tensor(np.arange(6.0))
        y = x.reshape(2, 3)
        assert y.numpy().base is x.numpy() or y.numpy().flags["OWNDATA"] is False

    def test_getitem_fancy_index_gradient(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 0, 2])
        x[idx].sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_accepts_tensor_index(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        idx = Tensor(np.array([2, 0]))
        np.testing.assert_allclose(x[idx].numpy(), [[4.0, 5.0], [0.0, 1.0]])

    @pytest.mark.parametrize("shape", [(40, 5), (40, 3, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["duplicates", "negative", "empty"])
    def test_gather_backward_is_bitwise_np_add_at(self, shape, dtype, kind):
        """The row gather's backward scatters with one CSC product that
        adds in index order, exactly as ``np.add.at`` does."""
        rng = np.random.default_rng(4)
        idx = {"duplicates": rng.integers(0, 8, 500),
               "negative": rng.integers(-40, 40, 500),
               "empty": np.array([], dtype=np.int64)}[kind]
        x = Tensor(rng.standard_normal(shape).astype(dtype),
                   requires_grad=True)
        g = rng.standard_normal((idx.size,) + shape[1:]).astype(dtype)
        x[idx].backward(g)
        expected = np.zeros(shape, dtype=dtype)
        np.add.at(expected, idx, g)
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("index", [
        (slice(None), slice(1, 3)),
        np.array([[True, False, True]] * 4),
        (np.array([1, 1, 3]), np.array([2, 2, 0])),
    ], ids=["slices", "mask", "tuple-duplicates"])
    def test_other_index_forms_sum_like_np_add_at(self, index):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        y = x[index]
        g = rng.standard_normal(y.shape)
        y.backward(g)
        expected = np.zeros((4, 3))
        np.add.at(expected, index, g)
        assert np.array_equal(x.grad, expected)


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda x: x.sum(), np.random.default_rng(11).standard_normal((3, 4)))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=1).sum(), np.random.default_rng(12).standard_normal((3, 4)))

    def test_sum_keepdims_shape(self):
        x = Tensor(np.ones((3, 4)))
        assert x.sum(axis=1, keepdims=True).shape == (3, 1)

    def test_mean_all(self):
        check_gradient(lambda x: x.mean(), np.random.default_rng(13).standard_normal((3, 4)))

    def test_mean_axis(self):
        check_gradient(lambda x: x.mean(axis=0).sum(), np.random.default_rng(14).standard_normal((3, 4)))

    def test_max_axis_value(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        np.testing.assert_allclose(x.max(axis=1).numpy(), [5.0, 3.0])

    def test_max_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestNonlinearities:
    def test_relu_forward(self):
        np.testing.assert_allclose(Tensor(np.array([-1.0, 2.0])).relu().numpy(), [0.0, 2.0])

    def test_relu_gradient(self):
        data = np.random.default_rng(15).standard_normal((4, 4)) + 0.1
        check_gradient(lambda x: x.relu(), data)

    def test_exp_log_tanh_sigmoid_gradients(self):
        rng = np.random.default_rng(16)
        check_gradient(lambda x: x.exp(), rng.standard_normal((3,)))
        check_gradient(lambda x: x.log(), np.abs(rng.standard_normal((3,))) + 1.0)
        check_gradient(lambda x: x.tanh(), rng.standard_normal((3,)))
        check_gradient(lambda x: x.sigmoid(), rng.standard_normal((3,)))

    def test_softmax_rows_sum_to_one(self):
        out = softmax(Tensor(np.random.default_rng(17).standard_normal((5, 4))))
        np.testing.assert_allclose(out.numpy().sum(axis=1), np.ones(5), rtol=1e-12)

    def test_softmax_gradient(self):
        data = np.random.default_rng(18).standard_normal((3, 4))
        check_gradient(lambda x: softmax(x) * Tensor(np.arange(12.0).reshape(3, 4)), data)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(19).standard_normal((4, 5))
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).numpy(), np.log(softmax(Tensor(x)).numpy()), rtol=1e-10
        )

    def test_log_softmax_numerically_stable(self):
        out = log_softmax(Tensor(np.array([[1000.0, 0.0]])))
        assert np.isfinite(out.numpy()).all()


class TestStructuralOps:
    def test_concat_forward_and_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 2)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))



class TestTapeMechanics:
    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor(np.ones(2), requires_grad=True)
            assert not (x * 2).requires_grad
        assert is_grad_enabled()

    def test_gradient_accumulation_over_reuse(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2 + x * 3  # x used twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_diamond_graph_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3
        b = x * 4
        ((a + b) * a).sum().backward()
        # f = (3x + 4x) * 3x = 21 x^2, df/dx = 42 x = 84
        np.testing.assert_allclose(x.grad, [84.0])

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        y2 = (x * 2).sum()
        y2.backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_does_not_recurse(self):
        # 3000-op chain would blow Python's default recursion limit if the
        # topological sort were recursive.
        x = Tensor(np.ones(1), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestFactories:
    def test_zeros_ones(self):
        assert zeros(2, 3).shape == (2, 3)
        assert zeros((4,), requires_grad=True).requires_grad
