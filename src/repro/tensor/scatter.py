"""Scatter and segment reductions — the sparse-NN op layer.

FlexGraph's hybrid execution (Section 4.2) distinguishes three ways to
aggregate neighbor features:

* **SA (sparse tensor ops)** — :func:`scatter_add` and friends, in the
  style of pytorch-scatter.  The caller gathers source features into a
  per-edge ``value`` tensor first, *materializing* one message per edge
  (Figure 8); this is the memory-explosion path the paper calls out.
* **FA (feature fusion)** — :func:`segment_reduce_csr`, which reduces
  directly over a CSC/CSR segment structure without per-edge
  materialization, modeling libgrape-lite's vertex-reduce, and
  :func:`segment_attention`, the same for a softmax-weighted sum: only
  per-edge *scalars* exist, never one message per edge.
* **Dense ops** — plain reshape + reduce, used at the schema-tree level.

All reductions run on a :class:`~repro.tensor.plans.ReductionPlan`: the
stable-sort permutation, segment offsets, SpMM matrix and its transpose
are precomputed once per topology and reused every call (pass ``plan=``;
an HDG memoizes one per level, :meth:`repro.core.hdg.HDG.plan`).
Without it, an ephemeral plan is built per call from ``index`` /
``offsets`` — still vectorized (sum/mean are one SpMM, max/min/softmax
are sorted ``reduceat`` sweeps; no ``np.add.at`` / ``np.maximum.at`` on
any path), just not amortized.

All reductions here are autograd-aware.  The ``scatter.materialized_bytes``
observability counter tracks both the running *total* and the *peak*
concurrently-live bytes of per-edge intermediates so memory-footprint
experiments can observe the SA-vs-FA difference quantitatively (see
:mod:`repro.obs`; training loops release the counter after backward so
``peak`` reflects the per-epoch high-water mark).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

from ..obs import counter as _obs_counter
from ..obs.profile import record_op
from .plans import ReductionPlan, accumulation_dtype
from .tensor import Tensor, _as_tensor

__all__ = [
    "scatter_add",
    "scatter_mean",
    "scatter_max",
    "scatter_min",
    "scatter_softmax",
    "segment_reduce_csr",
    "segment_attention",
    "materialized_bytes",
    "peak_materialized_bytes",
    "reset_materialized_bytes",
    "release_materialized_bytes",
    "MATERIALIZED_BYTES_COUNTER",
]

#: Name of the obs counter fed by per-edge scatter intermediates.
MATERIALIZED_BYTES_COUNTER = "scatter.materialized_bytes"


def materialized_bytes() -> int:
    """Total bytes of per-edge message tensors materialized so far."""
    return int(_obs_counter(MATERIALIZED_BYTES_COUNTER).total)


def peak_materialized_bytes() -> int:
    """High-water mark of concurrently live per-edge bytes (Table 5's
    peak-memory accounting).  Equals :func:`materialized_bytes` unless a
    training loop releases intermediates after backward."""
    return int(_obs_counter(MATERIALIZED_BYTES_COUNTER).peak)


def reset_materialized_bytes() -> None:
    _obs_counter(MATERIALIZED_BYTES_COUNTER).reset()


def release_materialized_bytes(nbytes: int) -> None:
    """Mark ``nbytes`` of per-edge intermediates as freed (lowers the
    live value the peak tracks; the running total is unaffected)."""
    _obs_counter(MATERIALIZED_BYTES_COUNTER).release(nbytes)


def _record_materialization(nbytes: int) -> None:
    _obs_counter(MATERIALIZED_BYTES_COUNTER).add(int(nbytes))


def _check_index(index, length: int) -> np.ndarray:
    # Unwrap Tensor *before* np.asarray: asarray would build a 0-d object
    # array from a Tensor, so unwrapping afterwards never fired.
    if isinstance(index, Tensor):
        index = index.data
    index = np.asarray(index)
    index = index.astype(np.int64, copy=False)
    if index.ndim != 1:
        raise ValueError(f"scatter index must be 1-D, got shape {index.shape}")
    if index.shape[0] != length:
        raise ValueError(
            f"index length {index.shape[0]} does not match value rows {length}"
        )
    return index


def _dim_size(index: np.ndarray, dim_size: int | None) -> int:
    if dim_size is not None:
        return int(dim_size)
    return int(index.max()) + 1 if index.size else 0


def _resolve_index_plan(value: Tensor, index, dim_size: int | None,
                        plan: ReductionPlan | None,
                        op: str) -> ReductionPlan:
    """Pick the plan for a scatter call: the explicit ``plan``, or an
    ephemeral one built from ``index``."""
    if plan is not None:
        if plan.kind != "index":
            raise ValueError(
                f"{op} requires an index-kind plan, got {plan.kind!r}"
            )
        if plan.num_rows != value.shape[0]:
            raise ValueError(
                f"plan covers {plan.num_rows} rows but value has "
                f"{value.shape[0]}"
            )
        if dim_size is not None and int(dim_size) != plan.n:
            raise ValueError(
                f"dim_size {int(dim_size)} does not match plan dim {plan.n}"
            )
        return plan
    if index is None:
        raise ValueError(f"{op} needs an index when no plan is given")
    index = _check_index(index, value.shape[0])
    return ReductionPlan.from_index(index, _dim_size(index, dim_size))


def scatter_add(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None) -> Tensor:
    """Sum rows of ``value`` into ``out[index[i]] += value[i]`` (Figure 8).

    The per-edge ``value`` tensor is counted as a materialized
    intermediate — this is the memory-hungry sparse path.  The reduction
    itself is one SpMM against the plan's CSR matrix.
    """
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, "scatter_add")
    n = plan.n
    dtype = value.data.dtype
    acc = accumulation_dtype(dtype)
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros((n,) + value.shape[1:], dtype=dtype)
    else:
        flat = value.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
        out_data = (plan.matrix(acc) @ flat).astype(dtype, copy=False).reshape(
            (n,) + value.shape[1:]
        )
    # one add per scattered element
    record_op("scatter_add", flops=float(value.data.size),
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        return (g[plan.index],)

    return Tensor._make(out_data, (value,), backward)


def scatter_mean(value: Tensor, index: np.ndarray | None = None,
                 dim_size: int | None = None, *,
                 plan: ReductionPlan | None = None) -> Tensor:
    """Average rows of ``value`` per destination index."""
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, "scatter_mean")
    n = plan.n
    dtype = value.data.dtype
    acc = accumulation_dtype(dtype)
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros((n,) + value.shape[1:], dtype=dtype)
    else:
        flat = value.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
        out_flat = plan.matrix(acc) @ flat
        # Divisor stays in the accumulator dtype: the value dtype for
        # float32/float64 models, float32 for fp16 inputs.
        out_flat /= plan.safe_counts(acc)[:, None]
        out_data = out_flat.astype(dtype, copy=False).reshape((n,) + value.shape[1:])
    # add + normalize: ~2 FLOPs per scattered element
    record_op("scatter_mean", flops=2.0 * value.data.size,
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        scale = plan.inv_counts(acc)[plan.index]
        grad = g[plan.index].astype(acc, copy=False) * scale.reshape(
            (-1,) + (1,) * (value.ndim - 1)
        )
        return (grad.astype(dtype, copy=False),)

    return Tensor._make(out_data, (value,), backward)


def _scatter_extremum(value: Tensor, index, dim_size: int | None, kind: str,
                      plan: ReductionPlan | None) -> Tensor:
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan,
                               "scatter_" + kind)
    n = plan.n
    dtype = value.data.dtype
    _record_materialization(value.data.nbytes)
    ufunc = np.maximum if kind == "max" else np.minimum
    # Destinations with no sources get 0 (the conventional empty reduction);
    # nonempty segments are one sorted reduceat sweep.
    out_data = np.zeros((n,) + value.shape[1:], dtype=dtype)
    if plan.total:
        out_data[plan.nonempty] = ufunc.reduceat(
            value.data[plan.gather], plan.starts, axis=0
        )
    # one comparison per scattered element
    record_op("scatter_" + kind, flops=float(value.data.size),
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        # Route gradient only to the rows that achieved the extremum,
        # splitting ties equally.
        idx = plan.index
        winner = (value.data == out_data[idx]).astype(dtype)
        ties = np.ones((n,) + value.shape[1:], dtype=dtype)
        if plan.total:
            ties[plan.nonempty] = np.maximum(
                np.add.reduceat(winner[plan.gather], plan.starts, axis=0),
                1.0,
            )
        return (winner * g[idx] / ties[idx],)

    return Tensor._make(out_data, (value,), backward)


def scatter_max(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None) -> Tensor:
    """Per-destination elementwise max."""
    return _scatter_extremum(value, index, dim_size, "max", plan)


def scatter_min(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None) -> Tensor:
    """Per-destination elementwise min."""
    return _scatter_extremum(value, index, dim_size, "min", plan)


def scatter_softmax(value: Tensor, index: np.ndarray | None = None,
                    dim_size: int | None = None, *,
                    plan: ReductionPlan | None = None) -> Tensor:
    """Softmax over groups that share a destination index.

    Used by MAGNN's intra-metapath attention step (Figure 7 uses
    ``scatter_softmax`` as the level-2 UDF).
    """
    value = _as_tensor(value)
    plan = _resolve_index_plan(value, index, dim_size, plan, "scatter_softmax")
    dtype = value.data.dtype
    acc = accumulation_dtype(dtype)
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros_like(value.data)
        reps = None
    else:
        order = plan.gather
        reps = plan.counts[plan.nonempty]
        # exp/sum run in the accumulator dtype (fp32 for fp16 inputs);
        # only the normalized result is narrowed back.
        sv = value.data[order].astype(acc, copy=False)
        # Stabilize per group: subtract group max (sorted-domain sweep).
        shifted = sv - np.repeat(
            np.maximum.reduceat(sv, plan.starts, axis=0), reps, axis=0
        )
        e = np.exp(shifted)
        denom = np.add.reduceat(e, plan.starts, axis=0)
        out_sorted = e / np.repeat(denom, reps, axis=0)
        out_data = np.empty_like(value.data)
        out_data[order] = out_sorted
    # group max + shift + exp + sum + divide: ~5 FLOPs per element
    record_op("scatter_softmax", flops=5.0 * value.data.size,
              bytes_read=value.data.nbytes + plan.index.nbytes,
              bytes_written=out_data.nbytes)

    def backward(g):
        if plan.total == 0:
            return (np.zeros_like(value.data),)
        gs = (g.astype(acc, copy=False) * out_data.astype(acc, copy=False))[plan.gather]
        dot = np.repeat(
            np.add.reduceat(gs, plan.starts, axis=0), reps, axis=0
        )
        dot_rows = np.empty(value.shape, dtype=acc)
        dot_rows[plan.gather] = dot
        grad = out_data.astype(acc, copy=False) * (g.astype(acc, copy=False) - dot_rows)
        return (grad.astype(dtype, copy=False),)

    return Tensor._make(out_data, (value,), backward)


_SEGMENT_REDUCERS = frozenset({"sum", "mean", "max", "min"})


def _resolve_segment_plan(value: Tensor, offsets, sources,
                          plan: ReductionPlan | None,
                          op: str = "segment_reduce_csr") -> ReductionPlan:
    if plan is not None:
        if plan.kind != "segments":
            raise ValueError(
                f"{op} requires a segments-kind plan, got {plan.kind!r}"
            )
        if plan.num_rows != value.shape[0]:
            raise ValueError(
                f"plan covers {plan.num_rows} rows but value has "
                f"{value.shape[0]}"
            )
        return plan
    if offsets is None:
        raise ValueError(f"{op} needs offsets when no plan is given")
    return ReductionPlan.from_segments(offsets, sources, value.shape[0])


def segment_reduce_csr(
    value: Tensor,
    offsets: np.ndarray | None = None,
    sources: np.ndarray | None = None,
    reducer: str = "sum",
    *,
    plan: ReductionPlan | None = None,
) -> Tensor:
    """Feature-fusion reduction over CSC segments (no per-edge tensors).

    Segment ``i`` covers rows ``sources[offsets[i]:offsets[i+1]]`` of
    ``value`` (or the identity range when ``sources`` is ``None``, i.e. the
    elided-Dst layout of Section 4.1).  The reduction streams source rows
    into per-destination accumulators, which is the Python analogue of
    libgrape-lite's SIMD vertex reduce: it never builds the
    ``(num_edges, dim)`` message tensor that :func:`scatter_add` needs.

    Parameters
    ----------
    value:
        ``(num_sources, dim)`` feature tensor.
    offsets:
        ``(num_segments + 1,)`` monotone offset array.  May be omitted
        when ``plan`` is given.
    sources:
        Optional per-edge source-row indices.  ``None`` means segment ``i``
        reduces the contiguous slice ``value[offsets[i]:offsets[i+1]]``.
    reducer:
        One of ``sum``, ``mean``, ``max``, ``min``.
    plan:
        The :class:`~repro.tensor.plans.ReductionPlan` to reduce with
        (an HDG level's memoized one); ephemeral when omitted.
    """
    if reducer not in _SEGMENT_REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}; expected one of {sorted(_SEGMENT_REDUCERS)}")
    value = _as_tensor(value)
    plan = _resolve_segment_plan(value, offsets, sources, plan)
    n = plan.n
    total = plan.total
    dtype = value.data.dtype
    out_shape = (n,) + value.shape[1:]
    if total == 0:
        out_data = np.zeros(out_shape, dtype=dtype)

        def backward_empty(g):
            return (np.zeros_like(value.data),)

        return Tensor._make(out_data, (value,), backward_empty)

    acc = accumulation_dtype(dtype)
    if reducer in ("sum", "mean"):
        # Fused reduction as one sparse-matrix / dense-matrix product: the
        # (offsets, sources) pair *is* the CSR of the reduction matrix, so
        # no per-edge tensor enters the tape — this is the analogue of the
        # SIMD vertex reduce the paper implements in libgrape-lite.
        matrix = plan.matrix(acc)
        flat = value.data.reshape(plan.num_rows, -1).astype(acc, copy=False)
        out_flat = matrix @ flat
        if reducer == "mean":
            out_flat = out_flat / plan.safe_counts(acc)[:, None]
        out_data = out_flat.astype(dtype, copy=False).reshape(out_shape)
        # SpMM convention: 2 FLOPs (multiply+add) per reduced element;
        # reads stream one source row per edge plus the CSR structure.
        dim = flat.shape[1]
        record_op(
            "segment_reduce." + reducer,
            flops=2.0 * total * dim + (out_flat.size if reducer == "mean" else 0),
            bytes_read=(total * dim * value.data.itemsize
                        + plan.offsets.nbytes + total * 8),
            bytes_written=out_data.nbytes,
        )

        def backward(g):
            g_flat = g.reshape(n, -1).astype(acc, copy=False)
            if reducer == "mean":
                g_flat = g_flat / plan.safe_counts(acc)[:, None]
            # The transpose (CSC of the forward matrix, stored as CSR) is
            # built by the plan's first backward and kept, so training
            # converts once and inference never does.
            return ((plan.matrix_t(acc) @ g_flat).astype(dtype, copy=False).reshape(value.shape),)

        return Tensor._make(out_data, (value,), backward)

    # max / min: sorted segmented extremum over the plan's segment starts.
    rows = value.data if plan.gather is None else value.data[plan.gather]
    ufunc = np.maximum if reducer == "max" else np.minimum
    out_data = np.zeros(out_shape, dtype=dtype)
    out_data[plan.nonempty] = ufunc.reduceat(rows, plan.starts, axis=0)
    # one comparison per reduced element
    record_op(
        "segment_reduce." + reducer,
        flops=float(rows.size),
        bytes_read=rows.nbytes + plan.offsets.nbytes
        + (0 if plan.gather is None else plan.gather.nbytes),
        bytes_written=out_data.nbytes,
    )

    def backward(g):
        dst = plan.index
        winner = (rows == out_data[dst]).astype(dtype)
        ties = np.ones(out_shape, dtype=dtype)
        ties[plan.nonempty] = np.maximum(
            np.add.reduceat(winner, plan.starts, axis=0), 1.0
        )
        edge_grad = winner * g[dst] / ties[dst]
        if plan.gather is None:
            return (edge_grad,)
        source_plan = plan.source_plan()
        full = (source_plan.matrix(dtype) @ edge_grad.reshape(total, -1))
        return (full.reshape(value.shape),)

    return Tensor._make(out_data, (value,), backward)


#: Elements in one block of the attention backward's SDDMM: the per-edge
#: dot products ``g[dst] . x[src]`` are taken a block of edges at a time,
#: ``SDDMM_BLOCK_ELEMENTS // dim`` edges per block, so the two gathered
#: row blocks stay cache-sized and no ``(num_edges, dim)`` array exists.
SDDMM_BLOCK_ELEMENTS = 1 << 15


def segment_attention(values: Tensor, score_vector: Tensor,
                      plan: ReductionPlan) -> Tensor:
    """Softmax attention fused with its weighted sum (no per-edge rows).

    Over a segments-kind ``plan``, output row ``i`` is
    ``sum_e alpha_e * values[src_e]`` over the segment's members
    ``src_e = plan.gather[e]`` (``e`` itself in the elided-Dst identity
    layout), where ``alpha`` is the softmax, within the segment, of the
    member scores ``values[src_e] . score_vector``.  This is
    ``scatter_add(values[src] * scatter_softmax(values[src] @ a))`` —
    the SA form, which materializes two ``(num_edges, dim)`` tensors —
    computed with per-edge *scalars* only:

    * forward: each row is scored once (``values @ a``), the scores are
      picked per edge through ``plan.gather`` and softmax-normalized by
      ``reduceat`` over the plan's contiguous segments, and the output
      is one SpMM whose matrix is ``alpha`` on the plan's own CSR
      structure;
    * backward: ``d values`` is the CSC (transposed) product with the
      same arrays plus the score term ``ds (x) a``; the per-edge
      ``d alpha = g[dst] . values[src]`` is a blocked SDDMM
      (:data:`SDDMM_BLOCK_ELEMENTS`); ``d values`` is skipped when
      ``values`` needs no gradient.

    float16 values accumulate in float32 (:func:`accumulation_dtype`);
    the result has the dtype of ``values * score_vector``.  ``alpha`` is
    counted as the op's materialized bytes: one scalar per edge.
    """
    values = _as_tensor(values)
    score_vector = _as_tensor(score_vector)
    plan = _resolve_segment_plan(values, None, None, plan,
                                 "segment_attention")
    n, total, num_rows = plan.n, plan.total, plan.num_rows
    dim = values.shape[1]
    dtype = np.result_type(values.data.dtype, score_vector.data.dtype)
    acc = accumulation_dtype(dtype)
    # contiguous rows: the backward gathers row blocks out of x and g
    x = np.ascontiguousarray(values.data, dtype=acc)
    a = score_vector.data.reshape(dim).astype(acc, copy=False)
    src = plan.gather
    reps = plan.counts[plan.nonempty]
    row_scores = x @ a
    scores = row_scores if src is None else row_scores[src]
    alpha = np.exp(scores - np.repeat(
        np.maximum.reduceat(scores, plan.starts), reps))
    alpha /= np.repeat(np.add.reduceat(alpha, plan.starts), reps)
    _record_materialization(alpha.nbytes)
    structure = plan.matrix(acc)
    weighted = _sp.csr_matrix((alpha, structure.indices, structure.indptr),
                              shape=(n, num_rows))
    out_data = (weighted @ x).astype(dtype, copy=False)
    # scores 2 FLOPs per row element, softmax ~5 per edge, SpMM 2 per
    # edge element; one member row streamed per edge plus the structure.
    edge_elements = float(total) * dim
    edge_bytes = int(edge_elements) * x.itemsize
    structure_bytes = plan.offsets.nbytes + (0 if src is None else src.nbytes)
    record_op("segment_attention",
              flops=2.0 * x.size + 5.0 * total + 2.0 * edge_elements,
              bytes_read=x.nbytes + edge_bytes + structure_bytes,
              bytes_written=out_data.nbytes + alpha.nbytes)

    def backward(g):
        g = np.ascontiguousarray(g.reshape(n, dim), dtype=acc)
        dst = plan.index
        d_alpha = np.empty(total, dtype=acc)
        step = max(1, SDDMM_BLOCK_ELEMENTS // max(dim, 1))
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            members = x[lo:hi] if src is None else x.take(src[lo:hi], axis=0)
            np.einsum("ij,ij->i", g.take(dst[lo:hi], axis=0), members,
                      out=d_alpha[lo:hi])
        # softmax backward on the per-edge scalars
        dot = np.add.reduceat(alpha * d_alpha, plan.starts)
        d_scores = alpha * (d_alpha - np.repeat(dot, reps))
        d_rows = d_scores if src is None else np.bincount(
            src, weights=d_scores, minlength=num_rows).astype(acc, copy=False)
        d_a = x.T @ d_rows
        d_x = None
        flops = 2.0 * edge_elements + 6.0 * total + 2.0 * x.size
        read = g.nbytes + edge_bytes + structure_bytes
        if values.requires_grad:
            d_x = _sp.csc_matrix(
                (alpha, structure.indices, structure.indptr),
                shape=(num_rows, n)) @ g
            d_x += d_rows[:, None] * a
            flops += 2.0 * edge_elements + 2.0 * x.size
            read += edge_bytes
            d_x = d_x.astype(values.data.dtype, copy=False)
        record_op("segment_attention.backward", flops=flops, bytes_read=read,
                  bytes_written=d_a.nbytes + (0 if d_x is None else d_x.nbytes))
        return d_x, d_a.astype(score_vector.data.dtype, copy=False).reshape(
            score_vector.shape)

    return Tensor._make(out_data, (values, score_vector), backward)
