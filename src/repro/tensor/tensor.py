"""A minimal reverse-mode autograd engine over numpy arrays.

This module is the reproduction's stand-in for PyTorch: FlexGraph (EuroSys
'21) uses PyTorch as its NN execution runtime, which is not available in
this offline environment.  ``Tensor`` wraps a ``numpy.ndarray`` and records
a tape of backward closures, exactly enough to express the op vocabulary
the paper's code sketches rely on (dense matmul, elementwise ops, gather,
scatter reductions, reshape-then-reduce).

The design follows the classic define-by-run tape:

* every differentiable op produces a new ``Tensor`` whose ``_backward``
  closure accumulates gradients into its parents;
* ``Tensor.backward()`` topologically sorts the tape and runs the closures
  in reverse order.

Gradients are always held as plain ``numpy.ndarray`` (never nested
Tensors); there is no higher-order differentiation, matching what GNN
training needs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as _sp

from ..obs.profile import record_op

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling gradient tape recording (like torch.no_grad)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  An ndarray or NumPy scalar keeps its dtype
        (integer ones cannot require grad); anything else becomes a
        ``float32`` array, the default compute dtype
        (:class:`~repro.tensor.nn.Parameter`).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.generic):  # a reduction's NumPy scalar
            data = np.asarray(data)
        elif not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        self.data = data
        if self.data.dtype.kind in "iub" and requires_grad:
            raise TypeError("integer tensors cannot require grad")
        self.requires_grad = bool(requires_grad and _GRAD_ENABLED)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut off from the autograd tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    # ------------------------------------------------------------------
    # Tape machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """Create a tape node from an op's forward output.

        ``backward`` is called with the output gradient and must return a
        tuple of gradients aligned with ``parents`` (``None`` for parents
        that do not require grad).
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to ``1.0`` for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order over the tape (iterative DFS: tapes can be deep).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent._backward is None and not parent._parents:
                    parent._accumulate(pgrad)
                elif id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data)
        out_data = self.data + other.data
        a_shape, b_shape = self.shape, other.shape

        def backward(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def add(self, other) -> "Tensor":
        """Elementwise addition (paper pseudocode: ``feas.add(nbr_feas)``)."""
        return self + other

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data)
        out_data = self.data - other.data
        a_shape, b_shape = self.shape, other.shape

        def backward(g):
            return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other, self.data) - self

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data)
        out_data = self.data * other.data
        a, b = self, other

        def backward(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data)
        out_data = self.data / other.data
        a, b = self, other

        def backward(g):
            ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
            gb = (
                _unbroadcast(-g * a.data / (b.data**2), b.shape)
                if b.requires_grad
                else None
            )
            return ga, gb

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other, self.data) / self

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent
        base = self

        def backward(g):
            return (g * exponent * base.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data)
        out_data = self.data @ other.data
        a, b = self, other
        # (n,k)@(k,m): 2nkm FLOPs (multiply+add); the same count again
        # per backward operand (dL/dA = g@B^T, dL/dB = A^T@g).
        flops = 2.0 * out_data.size * self.data.shape[-1]
        record_op(
            "matmul", flops=flops,
            bytes_read=self.data.nbytes + other.data.nbytes,
            bytes_written=out_data.nbytes,
        )

        def backward(g):
            ga = gb = None
            if a.requires_grad:
                ga = g @ b.data.T
                record_op("matmul.backward", flops=flops,
                          bytes_read=g.nbytes + b.data.nbytes,
                          bytes_written=ga.nbytes)
            if b.requires_grad:
                gb = a.data.T @ g
                record_op("matmul.backward", flops=flops,
                          bytes_read=g.nbytes + a.data.nbytes,
                          bytes_written=gb.nbytes)
            return ga, gb

        return Tensor._make(out_data, (self, other), backward)

    def matmul(self, other) -> "Tensor":
        return self @ other

    @property
    def T(self) -> "Tensor":
        def backward(g):
            return (g.T,)

        return Tensor._make(self.data.T, (self,), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Reshape without memory copy — the dense-op trick in Section 4.2."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(old_shape),)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        """Gather rows/slices; indices may be ndarray (fancy indexing)."""
        if isinstance(idx, Tensor):
            idx = idx.data.astype(np.int64)
        out_data = self.data[idx]
        shape, dtype = self.shape, self.data.dtype

        def backward(g):
            # A basic index selects each position at most once: write the
            # gradient into place.  Otherwise scatter-add it back:
            # duplicate rows sum, in index order.  A 1-D integer index
            # scatters whole rows; any other index (masks, arrays in a
            # tuple) scatters the flat positions of the elements it
            # selected.
            if _is_basic_index(idx):
                grad = np.zeros(shape, dtype=dtype)
                grad[idx] = g
                return (grad,)
            if (isinstance(idx, np.ndarray) and idx.ndim == 1
                    and idx.dtype.kind in "iu"):
                rows = np.where(idx < 0, idx + shape[0], idx)
                return (_index_add(rows, g, shape, dtype),)
            size = int(np.prod(shape))
            flat = np.arange(size).reshape(shape)[idx].ravel()
            return (_index_add(flat, g, (size,), dtype).reshape(shape),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = _reduce(self.data, "sum", axis, keepdims)
        src_shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, src_shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, src_shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = _reduce(self.data, "mean", axis, keepdims)
        src_shape = self.shape
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([src_shape[a] for a in axes]))

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g / count, src_shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded / count, src_shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        src = self

        def backward(g):
            if axis is None:
                mask = (src.data == out_data).astype(src.data.dtype)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = (src.data == expanded).astype(src.data.dtype)
            # Split gradient equally among ties to keep it well-defined.
            denom = mask.sum(axis=axis, keepdims=True)
            denom[denom == 0] = 1.0
            g_expanded = g if (axis is None or keepdims) else np.expand_dims(g, axis)
            return (mask / denom * g_expanded,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        mask = self.data > 0

        def backward(g):
            return (g * mask,)

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            return (g * out_data,)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)
        src = self

        def backward(g):
            return (g / src.data,)

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - out_data**2),)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), backward)


def _slice_axis(data: np.ndarray, axis) -> int | None:
    """``axis`` as a non-negative int where :func:`_reduce` adds slices,
    else ``None``.  That is one middle axis of a C-contiguous
    float32/float64 array whose slices are wider than one element: numpy
    loops such an axis outside the contiguous trailing ones, adding its
    slices in index order.  Along width-1 slices it reduces the axis in
    its inner loop, pairwise, in another order; axis 0 would be a Python
    loop over rows; a float16 sum accumulates in float32."""
    if (not isinstance(axis, (int, np.integer)) or data.size == 0
            or data.dtype.kind != "f" or data.dtype.itemsize not in (4, 8)
            or not data.flags.c_contiguous):
        return None
    axis = int(axis) + data.ndim if axis < 0 else int(axis)
    if not 0 < axis < data.ndim - 1 or math.prod(data.shape[axis + 1:]) == 1:
        return None
    return axis


def _reduce(data: np.ndarray, op: str, axis, keepdims: bool) -> np.ndarray:
    """``data.sum`` or ``data.mean`` (``op``) over ``axis``, bit for bit;
    over a middle axis (:func:`_slice_axis`) as slice adds in index
    order, which skip numpy's reduction machinery."""
    middle = _slice_axis(data, axis)
    if middle is None:
        return getattr(data, op)(axis=axis, keepdims=keepdims)
    lead = (slice(None),) * middle
    first, count = data[lead + (0,)], data.shape[middle]
    out = first.copy() if count == 1 else first + data[lead + (1,)]
    for i in range(2, count):
        out += data[lead + (i,)]
    if op == "mean":
        # numpy's mean: the sum divided in place by an intp count (in
        # float64 for a float32 sum, rounded back)
        np.true_divide(out, np.intp(count), out=out, casting="unsafe")
    return np.expand_dims(out, middle) if keepdims else out


def _is_basic_index(idx) -> bool:
    """Whether ``idx`` is NumPy *basic* indexing — ints, slices,
    ``Ellipsis`` and ``None``, alone or in a tuple — which never selects
    one position twice.  A bool is an advanced (mask) index."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        part is None or part is Ellipsis or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts)


def _index_add(positions: np.ndarray, g: np.ndarray,
               shape: tuple[int, ...], dtype) -> np.ndarray:
    """``out = zeros(shape); out[positions[k]] += g[k]`` along axis 0.

    One CSC product whose column ``k`` holds a single 1 in row
    ``positions[k]``: it adds in index order, as ``np.add.at`` does, so
    float32/float64 results are bitwise equal to it.
    """
    count = positions.size
    scatter = _sp.csc_matrix(
        (np.ones(count, dtype=dtype), positions, np.arange(count + 1)),
        shape=(shape[0], count))
    width = int(np.prod(shape[1:]))
    flat = g.reshape(count, width).astype(dtype, copy=False)
    # scipy has no half-precision SpMM: it returns float32 for a float16
    # ``g``, and the gradient keeps the indexed tensor's dtype.
    return (scatter @ flat).astype(dtype, copy=False).reshape(shape)


def _as_tensor(value, like: np.ndarray | None = None) -> Tensor:
    """``value`` as a :class:`Tensor`.

    A Python scalar meeting ``like`` (the other operand of a binary op)
    promotes the way NumPy promotes a bare scalar: it takes ``like``'s
    dtype unless its kind needs a wider one, so ``float32 * 2.0`` and
    ``float32 + 1`` stay float32.  A NumPy float scalar counts as a
    Python float here.  Float arrays keep their dtype; anything else
    becomes float32.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None and isinstance(value, (int, float)):
        scalar = float(value) if isinstance(value, float) else int(value)
        return Tensor(np.asarray(value, dtype=np.result_type(like, scalar)))
    if isinstance(value, np.ndarray) and value.dtype.kind != "f":
        value = value.astype(np.float32)
    return Tensor(value)
