"""``repro.tensor`` — numpy autograd NN framework (PyTorch substitute).

FlexGraph runs on PyTorch; this package provides the subset of that
surface the reproduction needs: a tape-based :class:`Tensor`, dense and
sparse (scatter/segment) ops, ``nn``-style modules, optimizers and losses.
"""

from .loss import accuracy, binary_cross_entropy_with_logits, cross_entropy
from .nn import Embedding, Linear, LSTMCell, Module, Parameter
from .ops import concat, scatter_rows, softmax, zeros
from .optim import Adam, Optimizer
from .quant import (
    QuantizedRows,
    dequantize_rows,
    int8_error_bound,
    quantize_rows,
    resolve_codec,
    wire_bytes_per_row,
)
from .plans import PlanCache, ReductionPlan, get_plan_cache
from .schedulers import CosineAnnealingLR, EarlyStopping
from .scatter import (
    materialized_bytes,
    peak_materialized_bytes,
    release_materialized_bytes,
    reset_materialized_bytes,
    scatter_add,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    segment_attention,
    segment_reduce_csr,
)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "zeros", "concat", "softmax", "scatter_rows",
    "scatter_add", "scatter_mean", "scatter_max", "scatter_min",
    "scatter_softmax", "segment_reduce_csr", "segment_attention",
    "ReductionPlan", "PlanCache", "get_plan_cache",
    "materialized_bytes", "peak_materialized_bytes",
    "reset_materialized_bytes", "release_materialized_bytes",
    "Module", "Parameter", "Linear", "Embedding", "LSTMCell",
    "Optimizer", "Adam",
    "QuantizedRows", "quantize_rows", "dequantize_rows",
    "int8_error_bound", "resolve_codec", "wire_bytes_per_row",
    "CosineAnnealingLR", "EarlyStopping",
    "cross_entropy", "binary_cross_entropy_with_logits", "accuracy",
]
