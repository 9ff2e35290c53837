"""``repro.tensor`` — numpy autograd NN framework (PyTorch substitute).

FlexGraph runs on PyTorch; this package provides the subset of that
surface the reproduction needs: a tape-based :class:`Tensor`, dense and
sparse (scatter/segment) ops, ``nn``-style modules, optimizers and losses.
"""

from .loss import (
    accuracy,
    binary_cross_entropy_with_logits,
    cross_entropy,
    mse_loss,
    nll_loss,
)
from .nn import Dropout, Embedding, Linear, LSTMCell, Module, Parameter, ReLU, Sequential
from .ops import (
    concat,
    dropout,
    log_softmax,
    ones,
    randn,
    relu,
    scatter_rows,
    softmax,
    stack,
    tensor,
    zeros,
)
from .optim import SGD, Adam, Optimizer, SparseEmbeddingOptimizer
from .quant import (
    FEATURE_DTYPES,
    QuantizedRows,
    dequantize_rows,
    int8_error_bound,
    quantize_rows,
    resolve_codec,
    wire_bytes_per_row,
)
from .plans import (
    PlanCache,
    ReductionPlan,
    accumulation_dtype,
    get_plan_cache,
)
from .schedulers import (
    CosineAnnealingLR,
    EarlyStopping,
    LRScheduler,
    StepLR,
    WarmupLR,
)
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
    segment_reduce_csr,
)
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled",
    "tensor", "zeros", "ones", "randn", "relu", "concat", "stack",
    "softmax", "log_softmax", "dropout", "scatter_rows",
    "scatter_add", "scatter_mean", "scatter_max", "scatter_min",
    "scatter_softmax", "segment_reduce_csr",
    "ReductionPlan", "PlanCache", "accumulation_dtype",
    "get_plan_cache",
    "materialized_bytes", "peak_materialized_bytes",
    "reset_materialized_bytes", "release_materialized_bytes",
    "Module", "Parameter", "Linear", "Embedding", "LSTMCell", "ReLU", "Dropout", "Sequential",
    "Optimizer", "SGD", "Adam", "SparseEmbeddingOptimizer",
    "FEATURE_DTYPES", "QuantizedRows", "quantize_rows", "dequantize_rows",
    "int8_error_bound", "resolve_codec", "wire_bytes_per_row",
    "LRScheduler", "StepLR", "CosineAnnealingLR", "WarmupLR", "EarlyStopping",
    "cross_entropy", "nll_loss", "mse_loss",
    "binary_cross_entropy_with_logits", "accuracy",
]
