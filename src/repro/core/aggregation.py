"""Aggregation UDFs — the per-level accumulation functions of NAU.

The Aggregation stage applies one UDF per HDG level, bottom-up
(Figure 6).  Each :class:`Aggregator` exposes the same reduction through
three execution backends so the hybrid strategy (Section 4.2) can pick
per level:

* ``sparse``  — scatter ops over rows already gathered one per member
  (the SA path: per-edge messages materialized);
* ``fused``   — segment reduction over CSC offsets, no per-edge tensor
  materialization (the FA / libgrape-lite vertex-reduce path);
* ``dense``   — reshape-based reduction for regular (schema-tree) levels.

The structure of the level arrives as one argument, the level's
:class:`~repro.tensor.plans.ReductionPlan`, which the hybrid executor
fetches from the HDG (:meth:`repro.core.hdg.HDG.plan`).

Built-ins cover the paper's models: sum/mean/max/min (FlexGraph's
registered built-ins, Section 6), ``WeightedSumAggregator`` for PinSage's
importance weights, and ``AttentionAggregator`` for MAGNN's softmax
(scatter_softmax) step.
"""

from __future__ import annotations

import numpy as np

from ..tensor.nn import Module, Parameter
from ..tensor.plans import ReductionPlan
from ..tensor.scatter import (
    scatter_add,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    segment_attention,
    segment_reduce_csr,
)
from ..tensor.tensor import Tensor

__all__ = [
    "Aggregator",
    "SumAggregator",
    "MeanAggregator",
    "MaxAggregator",
    "MinAggregator",
    "WeightedSumAggregator",
    "AttentionAggregator",
    "LSTMAggregator",
    "get_aggregator",
]


class Aggregator(Module):
    """Base class: a reduction with sparse, fused and dense backends.

    ``values`` is always a ``(rows, dim)`` tensor of source features;
    ``plan`` is the :class:`~repro.tensor.plans.ReductionPlan` of the HDG
    level being reduced (``plan.n``, ``plan.offsets``, ``plan.gather``,
    ``plan.counts`` and ``plan.index`` describe it; every kernel takes
    it as ``plan=``); ``weights`` (optional, per member) carries edge
    importances.

    Two algebraic flags say what the engine may do *around* the UDF;
    both default to ``False``, so an unknown UDF stays on the safe path:

    * ``linear`` — the reduction commutes with a bias-free projection,
      ``agg(X) @ W == agg(X @ W)`` (sum, mean, weighted sum), so a layer
      with a declared linear Update may reduce at the narrower width
      (:meth:`repro.core.nau.GNNLayer.linear_update`);
    * ``commutative`` — member order does not matter and partial results
      fold, so §5's pipelined partial aggregation is valid (the
      ``linear`` ones plus max/min; not attention, not LSTM).

    A third flag marks attention: ``scored`` — the members are weighed
    by a softmax of one linear score per row, ``values @ score_vector``,
    and reduced linearly with those weights.  Its backends take
    ``packed=True`` when ``values`` carries those scores as its last
    column (``values @ score_vector`` on the tape otherwise), so a
    projection that carries ``score_vector`` as one more column may move
    below it.
    """

    name = "base"
    supports_fused = True
    supports_dense = True
    linear = False
    commutative = False
    scored = False

    def sparse(self, values: Tensor, plan: ReductionPlan,
               weights: np.ndarray | None = None) -> Tensor:
        """Scatter-op reduction (per-edge messages materialized): the
        same segments as :meth:`fused`, reduced by ``scatter_*`` ops,
        which count ``values`` as materialized.  The hybrid executor
        hands it the rows already gathered, one per member, with the
        level's ``plan.pregathered()``."""
        raise NotImplementedError

    def fused(self, values: Tensor, plan: ReductionPlan,
              weights: np.ndarray | None = None) -> Tensor:
        """Segment (CSC) reduction: output row ``i`` reduces the rows
        ``values[plan.gather[plan.offsets[i]:plan.offsets[i + 1]]]``.

        Built-in reducers override this with a kernel that never builds
        the per-edge tensor.  The default is correct for any UDF — gather
        the member rows, then :meth:`sparse` over ``plan.pregathered()``
        — but materializes them, so the hybrid executor only picks it
        when ``supports_fused`` says a real one exists.
        """
        return self.sparse(_member_rows(values, plan), plan.pregathered(),
                           weights)

    def dense(self, values: Tensor) -> Tensor:
        """Reduce a regular ``(groups, group_size, dim)`` tensor over axis 1."""
        raise NotImplementedError

    def forward(self, *args, **kwargs):  # pragma: no cover - aggregators are not called directly
        raise TypeError("aggregators are invoked via sparse/fused/dense, not forward()")


def _member_rows(values: Tensor, plan: ReductionPlan) -> Tensor:
    """The rows a segments plan reduces, gathered into segment order."""
    return values if plan.gather is None else values[plan.gather]


def _apply_weights(values: Tensor, weights: np.ndarray | None) -> Tensor:
    """``values`` scaled row-wise by per-edge ``weights``, in the values'
    dtype."""
    if weights is None:
        return values
    return values * Tensor(
        np.asarray(weights, dtype=values.data.dtype).reshape(-1, 1))


def _fused_reduce(values: Tensor, plan: ReductionPlan,
                  weights: np.ndarray | None, reducer: str) -> Tensor:
    if weights is None:
        return segment_reduce_csr(values, reducer=reducer, plan=plan)
    # Weights are per-edge: gather the member rows, scale each (one
    # elementwise multiply), and reduce them where they already lie.
    rows = _apply_weights(_member_rows(values, plan), weights)
    return segment_reduce_csr(rows, reducer=reducer, plan=plan.pregathered())


class SumAggregator(Aggregator):
    """Plain sum — GCN/PinSage's neighborhood accumulation (Figure 7)."""

    name = "sum"
    linear = True
    commutative = True

    def sparse(self, values, plan, weights=None):
        return scatter_add(_apply_weights(values, weights), plan=plan)

    def fused(self, values, plan, weights=None):
        return _fused_reduce(values, plan, weights, "sum")

    def dense(self, values):
        return values.sum(axis=1)


class MeanAggregator(Aggregator):
    """Arithmetic mean over each group."""

    name = "mean"
    linear = True
    commutative = True

    def sparse(self, values, plan, weights=None):
        return scatter_mean(_apply_weights(values, weights), plan=plan)

    def fused(self, values, plan, weights=None):
        return _fused_reduce(values, plan, weights, "mean")

    def dense(self, values):
        return values.mean(axis=1)


class MaxAggregator(Aggregator):
    """Elementwise max over each group."""

    name = "max"
    commutative = True

    def sparse(self, values, plan, weights=None):
        return scatter_max(values, plan=plan)

    def fused(self, values, plan, weights=None):
        return segment_reduce_csr(values, reducer="max", plan=plan)

    def dense(self, values):
        return values.max(axis=1)


class MinAggregator(Aggregator):
    """Elementwise min over each group."""

    name = "min"
    commutative = True

    def sparse(self, values, plan, weights=None):
        return scatter_min(values, plan=plan)

    def fused(self, values, plan, weights=None):
        return segment_reduce_csr(values, reducer="min", plan=plan)

    def dense(self, values):
        return -((-values).max(axis=1))


class WeightedSumAggregator(Aggregator):
    """Sum with mandatory per-edge weights (PinSage's visit frequencies)."""

    name = "weighted_sum"
    linear = True
    commutative = True
    supports_dense = False

    def sparse(self, values, plan, weights=None):
        if weights is None:
            raise ValueError("weighted_sum requires per-edge weights")
        return scatter_add(_apply_weights(values, weights), plan=plan)

    def fused(self, values, plan, weights=None):
        if weights is None:
            raise ValueError("weighted_sum requires per-edge weights")
        return _fused_reduce(values, plan, weights, "sum")

    def dense(self, values):  # pragma: no cover - guarded by supports_dense
        raise TypeError("weighted_sum has no dense form")


class AttentionAggregator(Aggregator):
    """Softmax attention over group members (GAT's neighbour attention and
    MAGNN's scatter_softmax step).

    Each source row gets a scalar score ``x . a`` from a learnable vector;
    scores are softmax-normalized within their group and used as weights.
    Every backend scores with one ``(rows, 1)`` column: the level's own
    ``values @ a`` (:meth:`score`) by default, or, with ``packed=True``,
    the last column of ``values``, which a projection carried up from
    below (``scored``).  :meth:`fused` is
    :func:`~repro.tensor.scatter.segment_attention`: the weighted sum is
    one SpMM over the level's plan, so only per-edge scalars exist, and
    a packed ``values`` goes in whole.  :meth:`sparse` is the SA form
    Figure 14 contrasts it with: gathered member rows, softmaxed scores,
    scaled by ``alpha`` and scattered — two per-edge × width tensors.
    It and :meth:`dense` take a packed column off with two slices.
    """

    name = "attention"
    scored = True

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.score_vector = Parameter(rng.standard_normal(dim) / np.sqrt(dim))

    def score(self, values: Tensor) -> Tensor:
        """``values @ a``: each row's score, as a ``(rows, 1)`` column."""
        return values @ self.score_vector.reshape(self.dim, 1)

    def sparse(self, values, plan, weights=None, packed=False):
        if packed:
            values, scores = values[..., :-1], values[..., -1:]
        else:
            scores = self.score(values)
        # Both kernels share one plan: the same segments.
        alpha = scatter_softmax(scores, plan=plan)
        return scatter_add(values * alpha, plan=plan)

    def fused(self, values, plan, weights=None, packed=False):
        scores = None if packed else self.score(values)
        return segment_attention(values, scores, plan)

    def dense(self, values, packed=False):
        from ..tensor.ops import softmax

        if packed:
            values, scores = values[..., :-1], values[..., -1:]
        else:
            n, g, d = values.shape
            scores = self.score(values.reshape(n * g, d)).reshape(n, g, 1)
        return (values * softmax(scores, axis=1)).sum(axis=1)


class LSTMAggregator(Aggregator):
    """Order-sensitive LSTM reduction over each group's members.

    The non-commutative aggregator §5 singles out: partial aggregation is
    *invalid* for it, so distributed training falls back to batched
    message transfer (the distributed trainer reads ``commutative``).  Members
    are consumed in storage order; sequences are truncated at
    ``max_seq_len`` to bound the sequential depth.
    """

    name = "lstm"
    supports_fused = False
    supports_dense = False

    def __init__(self, dim: int, hidden_dim: int | None = None,
                 max_seq_len: int = 16,
                 rng: np.random.Generator | None = None):
        super().__init__()
        from ..tensor.nn import LSTMCell
        from ..tensor.ops import scatter_rows

        if max_seq_len <= 0:
            raise ValueError("max_seq_len must be positive")
        self.dim = dim
        self.hidden_dim = hidden_dim or dim
        self.max_seq_len = max_seq_len
        self.cell = LSTMCell(dim, self.hidden_dim, rng=rng or np.random.default_rng(0))
        self._scatter_rows = scatter_rows

    def sparse(self, values: Tensor, plan: ReductionPlan,
               weights: np.ndarray | None = None) -> Tensor:
        # The plan already holds exactly what the sequential sweep needs:
        # the member gather (none in the identity layout) and per-group
        # counts/starts.
        dim_size = plan.n
        counts = plan.counts
        starts = plan.offsets[:-1]
        dtype = values.data.dtype
        h = Tensor(np.zeros((dim_size, self.hidden_dim), dtype=dtype))
        c = Tensor(np.zeros((dim_size, self.hidden_dim), dtype=dtype))
        max_len = min(int(counts.max()) if counts.size else 0, self.max_seq_len)
        for t in range(max_len):
            active = np.flatnonzero(counts > t)
            rows = starts[active] + t
            x_t = values[rows if plan.gather is None else plan.gather[rows]]
            h_new, c_new = self.cell(x_t, h[active], c[active])
            keep = np.ones(dim_size, dtype=dtype)
            keep[active] = 0.0
            keep_col = Tensor(keep.reshape(-1, 1))
            h = h * keep_col + self._scatter_rows(h_new, active, dim_size)
            c = c * keep_col + self._scatter_rows(c_new, active, dim_size)
        return h

    def dense(self, values):  # pragma: no cover - guarded by supports_dense
        raise TypeError("lstm aggregation has no dense form")


_BUILTINS = {
    "sum": SumAggregator,
    "mean": MeanAggregator,
    "max": MaxAggregator,
    "min": MinAggregator,
    "weighted_sum": WeightedSumAggregator,
}


def get_aggregator(spec, dim: int | None = None) -> Aggregator:
    """Resolve an aggregator from a name or pass an instance through.

    ``"attention"`` requires ``dim`` (the feature dimension it scores).
    """
    if isinstance(spec, Aggregator):
        return spec
    if spec == "attention":
        if dim is None:
            raise ValueError("attention aggregator needs the feature dimension")
        return AttentionAggregator(dim)
    if spec == "lstm":
        if dim is None:
            raise ValueError("lstm aggregator needs the feature dimension")
        return LSTMAggregator(dim)
    try:
        return _BUILTINS[spec]()
    except KeyError:
        raise KeyError(
            f"unknown aggregator {spec!r}; built-ins: {sorted(_BUILTINS)} "
            "+ 'attention' + 'lstm'"
        ) from None
