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

SA and FA differ only in the data they move: a ``scatter_*`` reduction
is FA's sum / mean / max / min kernel run over the materialized rows
(``plan.pregathered()`` of the level's plan), counted as materialized
and recorded as its own op.

All reductions run on a :class:`~repro.tensor.plans.ReductionPlan`: the
segment offsets, member gather and SpMM matrix are precomputed once per
topology and reused every call (a backward reads the matrix's arrays as
the CSC of its transpose; pass ``plan=``; an HDG memoizes one per level,
:meth:`repro.core.hdg.HDG.plan`).  Without it, an ephemeral plan is
built per call from ``index`` / ``offsets`` — still vectorized (sum/mean
are one SpMM, max/min/softmax are sorted ``reduceat`` sweeps; no
``np.add.at`` / ``np.maximum.at`` on any path), just not amortized.

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
from .plans import ReductionPlan
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


def _reject_half(value: Tensor, op: str) -> None:
    """Reject half-precision values: a float narrower than float32 is a
    storage codec (:mod:`repro.tensor.quant`), never a compute dtype,
    and scipy's SpMM would silently return float32 for it."""
    dtype = value.data.dtype
    if dtype.kind == "f" and dtype.itemsize < 4:
        raise TypeError(
            f"{op} got {dtype} values: {dtype} is a storage codec, not a "
            "compute dtype; cast them to the model's dtype (as_param_dtype)"
        )


def _resolve_plan(value: Tensor, plan: ReductionPlan | None, op: str, *,
                  index=None, dim_size: int | None = None,
                  offsets=None, sources=None) -> ReductionPlan:
    """The plan a reduction runs on: the explicit ``plan``, or an
    ephemeral one built from a scatter call's ``index`` or a segment
    call's ``offsets`` / ``sources``."""
    _reject_half(value, op)
    rows = value.shape[0]
    if plan is None:
        if index is not None:
            index = _check_index(index, rows)
            return ReductionPlan.from_index(index, _dim_size(index, dim_size))
        if offsets is not None:
            return ReductionPlan.from_segments(offsets, sources, rows)
        raise ValueError(f"{op} needs a plan, an index or offsets")
    if plan.num_rows != rows:
        raise ValueError(
            f"plan covers {plan.num_rows} rows but value has {rows}"
        )
    if dim_size is not None and int(dim_size) != plan.n:
        raise ValueError(
            f"dim_size {int(dim_size)} does not match plan dim {plan.n}"
        )
    return plan


_REDUCERS = frozenset({"sum", "mean", "max", "min"})


def _reduce(value: Tensor, plan: ReductionPlan, reducer: str) -> Tensor:
    """The one sum / mean / max / min kernel, over any plan.

    Sum and mean are one SpMM against the plan's CSR matrix (its
    ``(offsets, gather)`` pair *is* that CSR), and their backward is the
    product with the same arrays read as CSC.  Max and min are one
    sorted ``reduceat`` sweep over the member rows.  What the callers add
    is their own accounting: :func:`segment_reduce_csr` and the
    ``scatter_*`` ops record different ops, and a scatter counts its
    input rows as materialized messages.
    """
    n, total, dtype = plan.n, plan.total, value.data.dtype
    out_shape = (n,) + value.shape[1:]
    if total == 0:
        def backward_empty(g):
            return (np.zeros_like(value.data),)

        return Tensor._make(np.zeros(out_shape, dtype=dtype), (value,),
                            backward_empty)

    if reducer in ("sum", "mean"):
        flat = value.data.reshape(plan.num_rows, -1)
        out_flat = plan.matrix(dtype) @ flat
        if reducer == "mean":
            out_flat = out_flat / plan.safe_counts(dtype)[:, None]

        def backward(g):
            g_flat = g.reshape(n, -1).astype(dtype, copy=False)
            if reducer == "mean":
                g_flat = g_flat / plan.safe_counts(dtype)[:, None]
            # The transpose is the forward matrix's own arrays read as
            # CSC (``.T`` copies nothing): it adds into each source row in
            # segment order, as a CSR of the transpose would.
            return ((plan.matrix(dtype).T @ g_flat).reshape(value.shape),)

        return Tensor._make(out_flat.reshape(out_shape), (value,), backward)

    rows = value.data if plan.gather is None else value.data[plan.gather]
    ufunc = np.maximum if reducer == "max" else np.minimum
    # Segments with no members get 0 (the conventional empty reduction).
    out_data = np.zeros(out_shape, dtype=dtype)
    out_data[plan.nonempty] = ufunc.reduceat(rows, plan.starts, axis=0)

    def backward(g):
        # Route gradient only to the members that achieved the extremum,
        # splitting ties equally.
        dst = plan.index
        winner = (rows == out_data[dst]).astype(dtype)
        ties = np.ones(out_shape, dtype=dtype)
        ties[plan.nonempty] = np.maximum(
            np.add.reduceat(winner, plan.starts, axis=0), 1.0
        )
        member_grad = winner * g[dst] / ties[dst]
        if plan.gather is None:
            return (member_grad,)
        full = (plan.source_plan().matrix(dtype)
                @ member_grad.reshape(total, -1))
        return (full.reshape(value.shape),)

    return Tensor._make(out_data, (value,), backward)


def _scatter(value, index, dim_size: int | None,
             plan: ReductionPlan | None, reducer: str, op: str,
             flops_per_element: float) -> Tensor:
    """An SA reduction: ``value`` holds one materialized message per row,
    reduced by :func:`_reduce` and recorded as ``op``."""
    value = _as_tensor(value)
    plan = _resolve_plan(value, plan, op, index=index, dim_size=dim_size)
    _record_materialization(value.data.nbytes)
    out = _reduce(value, plan, reducer)
    # reads every message plus one int64 destination per member
    record_op(op, flops=flops_per_element * value.data.size,
              bytes_read=value.data.nbytes + 8 * plan.total,
              bytes_written=out.data.nbytes)
    return out


def scatter_add(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None) -> Tensor:
    """Sum rows of ``value`` into ``out[index[i]] += value[i]`` (Figure 8).

    The per-edge ``value`` tensor is counted as a materialized
    intermediate — this is the memory-hungry sparse path.  The reduction
    itself is :func:`segment_reduce_csr`'s kernel over the plan.
    """
    # one add per scattered element
    return _scatter(value, index, dim_size, plan, "sum", "scatter_add", 1.0)


def scatter_mean(value: Tensor, index: np.ndarray | None = None,
                 dim_size: int | None = None, *,
                 plan: ReductionPlan | None = None) -> Tensor:
    """Average rows of ``value`` per destination index."""
    # add + normalize: ~2 FLOPs per scattered element
    return _scatter(value, index, dim_size, plan, "mean", "scatter_mean", 2.0)


def scatter_max(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None) -> Tensor:
    """Per-destination elementwise max."""
    # one comparison per scattered element
    return _scatter(value, index, dim_size, plan, "max", "scatter_max", 1.0)


def scatter_min(value: Tensor, index: np.ndarray | None = None,
                dim_size: int | None = None, *,
                plan: ReductionPlan | None = None) -> Tensor:
    """Per-destination elementwise min."""
    return _scatter(value, index, dim_size, plan, "min", "scatter_min", 1.0)


def scatter_softmax(value: Tensor, index: np.ndarray | None = None,
                    dim_size: int | None = None, *,
                    plan: ReductionPlan | None = None) -> Tensor:
    """Softmax over groups that share a destination index.

    Used by MAGNN's intra-metapath attention step (Figure 7 uses
    ``scatter_softmax`` as the level-2 UDF).
    """
    value = _as_tensor(value)
    plan = _resolve_plan(value, plan, "scatter_softmax", index=index,
                         dim_size=dim_size)
    dtype = value.data.dtype
    # members in segment order: a view of the rows in the identity layout
    order = slice(None) if plan.gather is None else plan.gather
    _record_materialization(value.data.nbytes)
    if plan.total == 0:
        out_data = np.zeros_like(value.data)
        reps = None
    else:
        reps = plan.counts[plan.nonempty]
        sv = value.data[order]
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
              bytes_read=value.data.nbytes + 8 * plan.total,
              bytes_written=out_data.nbytes)

    def backward(g):
        if plan.total == 0:
            return (np.zeros_like(value.data),)
        g = g.astype(dtype, copy=False)
        gs = (g * out_data)[order]
        dot = np.repeat(
            np.add.reduceat(gs, plan.starts, axis=0), reps, axis=0
        )
        dot_rows = np.empty(value.shape, dtype=dtype)
        dot_rows[order] = dot
        return (out_data * (g - dot_rows),)

    return Tensor._make(out_data, (value,), backward)


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
    if reducer not in _REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}; expected one of {sorted(_REDUCERS)}")
    value = _as_tensor(value)
    plan = _resolve_plan(value, plan, "segment_reduce_csr",
                         offsets=offsets, sources=sources)
    out = _reduce(value, plan, reducer)
    total = plan.total
    if total:
        # one member row streamed per edge plus the CSR structure
        elements = total * (value.data.size // plan.num_rows)
        read = elements * value.data.itemsize + plan.offsets.nbytes
        if reducer in ("sum", "mean"):
            # SpMM convention: 2 FLOPs (multiply+add) per reduced element
            flops = 2.0 * elements + (out.data.size if reducer == "mean"
                                      else 0)
            read += total * 8
        else:
            # one comparison per reduced element
            flops = float(elements)
            read += 0 if plan.gather is None else plan.gather.nbytes
        record_op("segment_reduce." + reducer, flops=flops, bytes_read=read,
                  bytes_written=out.data.nbytes)
    return out


#: Elements in one block of the attention backward's SDDMM: the per-edge
#: dot products ``g[dst] . x[src]`` are taken a block of edges at a time,
#: ``SDDMM_BLOCK_ELEMENTS // dim`` edges per block, so the two gathered
#: row blocks stay cache-sized and no ``(num_edges, dim)`` array exists.
SDDMM_BLOCK_ELEMENTS = 1 << 15


def segment_attention(values: Tensor, scores: Tensor | None,
                      plan: ReductionPlan) -> Tensor:
    """Softmax attention fused with its weighted sum (no per-edge rows).

    Over ``plan``, output row ``i`` is
    ``sum_e alpha_e * values[src_e]`` over the segment's members
    ``src_e = plan.gather[e]`` (``e`` itself in the elided-Dst identity
    layout), where ``alpha`` is the softmax, within the segment, of the
    member scores ``scores[src_e]`` — ``scores`` is a ``(rows, 1)``
    column, one score per *row* of ``values``, picked per edge.  This is
    ``scatter_add(values[src] * scatter_softmax(scores[src]))`` — the SA
    form, which materializes two ``(num_edges, dim)`` tensors — computed
    with per-edge *scalars* only:

    * forward: the row scores are picked per edge through
      ``plan.gather`` and softmax-normalized by ``reduceat`` over the
      plan's contiguous segments, and the output is one SpMM whose
      matrix is ``alpha`` on the plan's own CSR structure;
    * backward: ``d values`` is the product with the same arrays read
      as CSC (the transpose; nothing is converted), skipped when
      ``values`` needs no gradient; the per-edge
      ``d alpha = g[dst] . values[src]`` is a blocked SDDMM
      (:data:`SDDMM_BLOCK_ELEMENTS`) over contiguous rows, and
      ``d scores`` sums the softmax backward of each edge onto its row.

    Where the scores come from is the caller's: ``values @ a`` on the
    tape, or a column a projection carried through the levels below
    (:meth:`repro.core.nau.GNNLayer.linear_update`).  A carried column
    stays packed: with ``scores=None``, ``values`` is ``(rows, d + 1)``
    with the scores as its last column, read in place, and the single
    gradient is ``(rows, d + 1)`` — no slice of it enters the tape and
    no two gradients are summed.  The result has the dtype of
    ``values * scores``.  ``alpha`` is counted as the op's materialized
    bytes: one scalar per edge.
    """
    values = _as_tensor(values)
    plan = _resolve_plan(values, plan, "segment_attention")
    n, total, num_rows = plan.n, plan.total, plan.num_rows
    packed = scores is None
    if packed:
        dim = values.shape[1] - 1
        dtype = values.data.dtype
        row_scores = values.data[:, dim]
    else:
        scores = _as_tensor(scores)
        dim = values.shape[1]
        if scores.shape != (num_rows, 1):
            raise ValueError(f"segment_attention needs a ({num_rows}, 1) "
                             f"score column, got {scores.shape}")
        dtype = np.result_type(values.data.dtype, scores.data.dtype)
        row_scores = scores.data.reshape(num_rows).astype(dtype, copy=False)
    # contiguous rows: the backward gathers row blocks out of x and g
    x = np.ascontiguousarray(values.data[:, :dim], dtype=dtype)
    src = plan.writable_gather()  # the backward's take and bincount read it
    reps = plan.counts[plan.nonempty]
    edge_scores = row_scores if src is None else row_scores[src]
    alpha = np.exp(edge_scores - np.repeat(
        np.maximum.reduceat(edge_scores, plan.starts), reps))
    alpha /= np.repeat(np.add.reduceat(alpha, plan.starts), reps)
    _record_materialization(alpha.nbytes)
    structure = plan.matrix(dtype)
    weighted = _sp.csr_matrix((alpha, structure.indices, structure.indptr),
                              shape=(n, num_rows))
    out_data = weighted @ x
    # softmax ~5 FLOPs per edge, SpMM 2 per edge element; one member row
    # and one score streamed per edge plus the structure.
    edge_elements = float(total) * dim
    edge_bytes = int(edge_elements) * x.itemsize
    structure_bytes = plan.offsets.nbytes + (0 if src is None else src.nbytes)
    record_op("segment_attention",
              flops=5.0 * total + 2.0 * edge_elements,
              bytes_read=row_scores.nbytes + edge_bytes + structure_bytes,
              bytes_written=out_data.nbytes + alpha.nbytes)

    def backward(g):
        g = np.ascontiguousarray(g.reshape(n, dim), dtype=dtype)
        dst = plan.index
        d_alpha = np.empty(total, dtype=dtype)
        step = max(1, SDDMM_BLOCK_ELEMENTS // max(dim, 1))
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            members = x[lo:hi] if src is None else x.take(src[lo:hi], axis=0)
            np.einsum("ij,ij->i", g.take(dst[lo:hi], axis=0), members,
                      out=d_alpha[lo:hi])
        # softmax backward on the per-edge scalars, summed onto each row
        dot = np.add.reduceat(alpha * d_alpha, plan.starts)
        d_edge = alpha * (d_alpha - np.repeat(dot, reps))
        d_scores = d_edge if src is None else np.bincount(
            src, weights=d_edge, minlength=num_rows).astype(dtype, copy=False)
        d_x = None
        flops = 2.0 * edge_elements + 6.0 * total
        read = g.nbytes + edge_bytes + structure_bytes
        if packed or values.requires_grad:
            d_x = (weighted.T @ g).astype(values.data.dtype, copy=False)
            flops += 2.0 * edge_elements
            read += edge_bytes
        record_op("segment_attention.backward", flops=flops, bytes_read=read,
                  bytes_written=d_scores.nbytes
                  + (0 if d_x is None else d_x.nbytes))
        if packed:
            grad = np.empty(values.shape, dtype=dtype)
            grad[:, :dim] = d_x
            grad[:, dim] = d_scores
            return (grad,)
        return d_x, d_scores.astype(scores.data.dtype, copy=False).reshape(
            scores.shape)

    return Tensor._make(out_data, (values,) if packed else (values, scores),
                        backward)
