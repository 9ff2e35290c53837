"""Additional autograd coverage: numerical gradient checks for composite
modules (LSTM cell, attention), indexing edge cases, tape subtleties."""

import numpy as np
import pytest

from repro.tensor import LSTMCell, ReductionPlan, Tensor, no_grad, softmax


def numerical_grad(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f(x)
        flat[i] = old - eps
        lo = f(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestLSTMCellGradients:
    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        cell = LSTMCell(3, 4, rng=rng)
        h0 = np.zeros((2, 4))
        c0 = np.zeros((2, 4))
        x_data = rng.standard_normal((2, 3))

        def f(arr):
            h, c = cell(Tensor(arr), Tensor(h0), Tensor(c0))
            return float((h.numpy() ** 2).sum() + c.numpy().sum())

        x = Tensor(x_data.copy(), requires_grad=True)
        h, c = cell(x, Tensor(h0), Tensor(c0))
        ((h * h).sum() + c.sum()).backward()
        num = numerical_grad(f, x_data.copy())
        np.testing.assert_allclose(x.grad, num, rtol=1e-4, atol=1e-7)

    def test_weight_gradient_matches_numerical(self):
        # Central differences at eps=1e-6 need float64 weights: a float64
        # model is built, then cast.
        rng = np.random.default_rng(1)
        cell = LSTMCell(2, 2, rng=rng).astype(np.float64)
        x = Tensor(rng.standard_normal((3, 2)))
        h0, c0 = Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2)))
        w_data = cell.w_x.data.copy()

        def f(arr):
            cell.w_x.data[...] = arr
            h, _c = cell(x, h0, c0)
            return float(h.numpy().sum())

        cell.w_x.data[...] = w_data
        h, _c = cell(x, h0, c0)
        cell.zero_grad()
        h.sum().backward()
        analytic = cell.w_x.grad.copy()
        num = numerical_grad(f, w_data.copy())
        cell.w_x.data[...] = w_data
        np.testing.assert_allclose(analytic, num, rtol=1e-4, atol=1e-7)

    def test_float32_weight_gradient_matches_float64(self):
        """The float32 cell's analytic gradient against the same weights
        in float64.  Each gradient entry passes through a handful of
        sums, products and gate derivatives, each rounding once, so the
        entries agree within 16 * eps32 of the largest one."""
        rng = np.random.default_rng(1)
        cell32 = LSTMCell(2, 2, rng=rng)
        x = rng.standard_normal((3, 2))
        cell64 = LSTMCell(2, 2).astype(np.float64)
        cell64.load_state_dict(cell32.state_dict())
        grads = []
        for cell in (cell32, cell64):
            dtype = cell.w_x.data.dtype
            zeros = Tensor(np.zeros((3, 2), dtype=dtype))
            h, _c = cell(Tensor(x.astype(dtype)), zeros, zeros)
            h.sum().backward()
            assert cell.w_x.grad.dtype == dtype
            grads.append(cell.w_x.grad)
        scale = np.abs(grads[1]).max()
        eps32 = float(np.finfo(np.float32).eps)
        assert np.abs(grads[0] - grads[1]).max() <= 16 * eps32 * scale


class TestAttentionGradients:
    def test_attention_aggregator_matches_numerical(self):
        from repro.core.aggregation import AttentionAggregator

        rng = np.random.default_rng(2)
        attn = AttentionAggregator(3, rng=rng)
        plan = ReductionPlan.from_index(np.array([0, 0, 1, 1, 1]), 2)
        data = rng.standard_normal((5, 3))

        def f(arr):
            out = attn.sparse(Tensor(arr), plan)
            return float((out.numpy() ** 2).sum())

        v = Tensor(data.copy(), requires_grad=True)
        out = attn.sparse(v, plan)
        (out * out).sum().backward()
        num = numerical_grad(f, data.copy())
        np.testing.assert_allclose(v.grad, num, rtol=1e-4, atol=1e-6)

    def test_score_vector_receives_gradient(self):
        from repro.core.aggregation import AttentionAggregator

        attn = AttentionAggregator(3)
        v = Tensor(np.random.default_rng(3).standard_normal((4, 3)))
        out = attn.sparse(v, ReductionPlan.from_index(np.array([0, 0, 1, 1]), 2))
        attn.zero_grad()
        (out * out).sum().backward()
        assert attn.score_vector.grad is not None
        assert np.abs(attn.score_vector.grad).sum() > 0


class TestIndexingEdgeCases:
    def test_boolean_mask_rows(self):
        x = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        mask = np.array([True, False, True, False])
        y = x[mask]
        assert y.shape == (2, 2)
        y.sum().backward()
        np.testing.assert_allclose(x.grad.sum(axis=1), [2.0, 0.0, 2.0, 0.0])

    def test_column_slice_gradient(self):
        x = Tensor(np.ones((3, 5)), requires_grad=True)
        x[:, 1:4].sum().backward()
        np.testing.assert_allclose(x.grad[:, 0], 0.0)
        np.testing.assert_allclose(x.grad[:, 1:4], 1.0)
        np.testing.assert_allclose(x.grad[:, 4], 0.0)

    def test_repeated_fancy_rows_accumulate(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        x[np.array([1, 1, 1])].sum().backward()
        np.testing.assert_allclose(x.grad[1], [3.0, 3.0])

    def test_reshape_minus_one(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, -1).shape == (2, 3)
        assert x.reshape(-1, 6).shape == (1, 6)


class TestTapeSubtleties:
    def test_no_grad_nesting(self):
        from repro.tensor import is_grad_enabled

        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_mixed_grad_and_nograd_parents(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            frozen = (x * 3).detach()
        y = x * frozen
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_backward_through_softmax_composition(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3, 4))

        def f(arr):
            s = softmax(Tensor(arr))
            return float((s * s).numpy().sum())

        x = Tensor(data.copy(), requires_grad=True)
        s = softmax(x)
        (s * s).sum().backward()
        num = numerical_grad(f, data.copy())
        np.testing.assert_allclose(x.grad, num, rtol=1e-4, atol=1e-8)

    def test_grad_not_tracked_for_constants(self):
        x = Tensor(np.ones(3), requires_grad=True)
        const = Tensor(np.ones(3))
        (x + const).sum().backward()
        assert const.grad is None

    def test_backward_on_detached_branch_does_not_leak(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * 2).detach() + x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])


class TestMiddleAxisReduction:
    """``Tensor.sum`` / ``Tensor.mean`` over one middle axis add slices
    in index order; the result must be numpy's, bit for bit — also where
    numpy reduces another way (width-1 slices, where it sums the axis
    pairwise in its inner loop) and so the slice adds must not run."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("group", [1, 2, 3, 6, 9, 17])
    @pytest.mark.parametrize("width", [1, 4, 16])
    def test_sum_and_mean_are_numpys_bits(self, dtype, group, width):
        rng = np.random.default_rng(group * 100 + width)
        cases = [
            ((37, group, width), 1), ((37, group, width), -2),
            ((5, group, width, 3), 1), ((5, 3, group, width), 2),
            ((5, 3, group, width), -2),
        ]
        for shape, axis in cases:
            data = (rng.standard_normal(shape) * 100).astype(dtype)
            for keepdims in (False, True):
                for op in ("sum", "mean"):
                    out = getattr(Tensor(data), op)(axis=axis,
                                                    keepdims=keepdims).data
                    ref = getattr(data, op)(axis=axis, keepdims=keepdims)
                    assert out.shape == ref.shape and out.dtype == ref.dtype
                    assert out.tobytes() == ref.tobytes(), (shape, axis, op)

    def test_slices_are_added_only_where_numpy_adds_them_in_order(self):
        from repro.tensor.tensor import _slice_axis

        wide = np.ones((8, 9, 4), dtype=np.float32)
        assert _slice_axis(wide, 1) == _slice_axis(wide, -2) == 1
        assert _slice_axis(wide, 0) is None          # a loop over rows
        assert _slice_axis(wide, 2) is None          # the last axis
        assert _slice_axis(wide, (1,)) is None
        assert _slice_axis(np.ones((8, 9, 1), np.float32), 1) is None
        assert _slice_axis(wide.astype(np.float16), 1) is None
        assert _slice_axis(wide.transpose(0, 2, 1), 1) is None
        assert _slice_axis(np.ones((0, 9, 4), np.float32), 1) is None

    def test_middle_axis_gradients(self):
        data = np.random.default_rng(0).standard_normal((4, 3, 5))
        for op, scale in (("sum", 1.0), ("mean", 1.0 / 3)):
            t = Tensor(data, requires_grad=True)
            getattr(t, op)(axis=1).sum().backward()
            np.testing.assert_array_equal(t.grad, np.full(data.shape, scale))
