"""Free-function tensor ops used throughout the FlexGraph reproduction.

These mirror the op vocabulary in the paper's code sketches (Figures 7 and
10): ``concat`` for PinSage's Update, ``softmax`` for attention-style
aggregation, and reshape-based dense reductions for the schema-tree level
of hierarchical aggregation.
"""

from __future__ import annotations

import numpy as np

from ..obs.profile import record_op
from .tensor import Tensor, _as_tensor

__all__ = [
    "concat",
    "softmax",
    "log_softmax",
    "zeros",
]


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """A float32 (the default compute dtype) tensor of zeros."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (PinSage Update: CONCAT(h, nbr))."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    record_op("concat", bytes_read=out_data.nbytes,
              bytes_written=out_data.nbytes)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    # max + shift + exp + sum + divide: ~5 FLOPs per element
    record_op("softmax", flops=5.0 * out_data.size,
              bytes_read=x.data.nbytes, bytes_written=out_data.nbytes)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)
    record_op("log_softmax", flops=5.0 * out_data.size,
              bytes_read=x.data.nbytes, bytes_written=out_data.nbytes)

    def backward(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward)


def scatter_rows(rows: Tensor, indices: np.ndarray, num_rows: int) -> Tensor:
    """Place ``rows[i]`` at position ``indices[i]`` of a zero matrix.

    The write-side counterpart of row gathering; used by mini-batch
    training to lift per-block outputs back into full-graph coordinates.
    ``indices`` must be unique.
    """
    rows = _as_tensor(rows)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or indices.shape[0] != rows.shape[0]:
        raise ValueError("indices must be 1-D and align with rows")
    if np.unique(indices).size != indices.size:
        raise ValueError("scatter_rows requires unique indices")
    out_data = np.zeros((num_rows,) + rows.shape[1:], dtype=rows.data.dtype)
    out_data[indices] = rows.data

    def backward(g):
        return (g[indices],)

    return Tensor._make(out_data, (rows,), backward)

