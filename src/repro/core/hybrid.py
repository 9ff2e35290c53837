"""Hybrid execution of hierarchical aggregation (Section 4.2).

FlexGraph differentiates the aggregation steps in an HDG's hierarchy by
context and picks the cheapest backend for each:

=====================  =================================================
HDG level              backend per strategy
=====================  =================================================
neighbor instances     SA: scatter ops (per-edge messages materialized)
(bottom, level max)    SA+FA / HA: **feature fusion** (segment reduce)
in-between (level 2)   SA / SA+FA: scatter ops over the instance rows
                       HA: segment reduce on the compact elided layout
schema tree (level 1)  SA / SA+FA: scatter ops
                       HA: **dense** reshape + reduce (Figure 10)
=====================  =================================================

``SA``, ``SA_FA`` and ``HA`` are exactly the three strategies compared in
Figure 14.  Whichever backend runs, the level's structure comes from one
place: the ``_reduce_*`` functions ask the HDG for the level's memoized
:class:`~repro.tensor.plans.ReductionPlan` (:meth:`HDG.plan`) and hand it
to the UDF — the sparse backend its ``pregathered()`` form, over the
member rows it gathered first.
"""

from __future__ import annotations

import enum
import time

import numpy as np

from ..obs import counter as _obs_counter
from ..obs import event as _obs_event
from ..obs.profile import record_op, work_since, work_snapshot
from ..tensor.ops import concat
from ..tensor.scatter import MATERIALIZED_BYTES_COUNTER
from ..tensor.tensor import Tensor, no_grad
from .aggregation import Aggregator
from .hdg import HDG

__all__ = ["ExecutionStrategy", "hierarchical_aggregate", "BACKEND_EVENT",
           "PROJECT_FIRST", "REDUCE_FIRST", "MEMOIZED"]

#: The two operator orders of a declared linear Update
#: (:meth:`repro.core.nau.GNNLayer.linear_update`): project the input
#: rows and reduce them at the output width, or reduce at the input
#: width and project the roots.
PROJECT_FIRST = "project_first"
REDUCE_FIRST = "reduce_first"
#: The order of a reduction that builds an HDG's memo of a constant
#: input (:func:`reduce_constant`): reduced once, at the input width,
#: and projected from the memo on every call.
MEMOIZED = "memoized"

#: Columns per block of a memo build: a narrow block of the input
#: stays in cache while the level's plan streams over it.
MEMO_BLOCK_COLUMNS = 16

#: obs event emitted once per HDG level per aggregation, recording which
#: backend (sparse / fused / dense) the hybrid executor picked, the
#: feature ``width`` it reduced at and the operator ``order`` that set
#: that width (``"project_first"`` when a declared linear Update moved
#: its projection below the reduction, else ``"reduce_first"``) *and*
#: its measured cost (seconds plus the FLOPs/bytes the profiler
#: attributed to the invocation) — this is what makes the Figure 14
#: strategy differences visible, and rankable, in traces
#: (``repro.obs.analysis.backend_report``).
BACKEND_EVENT = "aggregation.backend"


def _run_backend(level: str, backend: str, strategy: "ExecutionStrategy",
                 agg: Aggregator, values: Tensor, order: str, fn):
    """Invoke one backend, measuring wall time and profiled work, and
    emit the ``aggregation.backend`` event with the measured cost, the
    width ``values`` is reduced at and the operator ``order`` that
    decided it."""
    start = time.perf_counter()
    before = work_snapshot()
    out = fn()
    work = work_since(before)
    _obs_event(
        BACKEND_EVENT, level=level, backend=backend,
        strategy=strategy.value, aggregator=agg.name,
        order=order, width=int(values.shape[-1]),
        seconds=time.perf_counter() - start, **work,
    )
    return out


class ExecutionStrategy(enum.Enum):
    """Aggregation execution strategies benchmarked in Figure 14."""

    SA = "sa"        # sparse scatter ops only
    SA_FA = "sa+fa"  # sparse ops + feature fusion at the bottom level
    HA = "ha"        # hybrid: fusion + sparse + dense per level

    @classmethod
    def parse(cls, value) -> "ExecutionStrategy":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == str(value).lower():
                return member
        raise ValueError(f"unknown execution strategy {value!r}")


def hierarchical_aggregate(
    hdg: HDG,
    feats: Tensor,
    aggregators: list[Aggregator],
    strategy: ExecutionStrategy = ExecutionStrategy.HA,
    order: str = REDUCE_FIRST,
) -> Tensor:
    """Run the level-wise Aggregation stage of Figure 6 over an HDG.

    Parameters
    ----------
    hdg:
        The collective HDG (flat or depth-3).
    feats:
        ``(num_input_vertices, dim)`` input features indexed by global
        vertex id.
    aggregators:
        Bottom-up UDF list: ``aggregators[0]`` reduces leaves into
        instances (or directly into roots for flat HDGs),
        ``aggregators[1]`` instances into schema-leaf slots and
        ``aggregators[2]`` slots into roots.
    strategy:
        Which of the Figure 14 execution strategies to use.
    order:
        Reported on the ``aggregation.backend`` events: whether
        ``feats`` already went through the layer's Update projection
        (:data:`PROJECT_FIRST`) or not (:data:`REDUCE_FIRST`).  A
        projected ``feats`` ends with one score column per attention
        (``scored``) level, the bottom-most level's last
        (:func:`carried_projection`): every level below an attention
        level reduces its column with the rest, and the attention level
        reads it as its scores (``packed=True``).

    Returns
    -------
    Tensor
        ``(num_roots, dim')`` neighborhood representations, ordered like
        ``hdg.roots``.
    """
    strategy = ExecutionStrategy.parse(strategy)
    if feats.shape[0] < hdg.num_input_vertices:
        raise ValueError(
            f"feature matrix covers {feats.shape[0]} vertices but HDG references "
            f"{hdg.num_input_vertices}"
        )
    if hdg.depth == 1:
        if len(aggregators) != 1:
            raise ValueError(f"flat HDG needs exactly 1 aggregator, got {len(aggregators)}")
        return _reduce_bottom(hdg, feats, aggregators[0], strategy, order)

    if len(aggregators) != 3:
        raise ValueError(f"depth-3 HDG needs exactly 3 aggregators, got {len(aggregators)}")

    # Level 3: input-graph leaves -> neighbor instances.
    instance_feats = _reduce_bottom(hdg, feats, aggregators[0], strategy, order)

    # Level 2: neighbor instances -> (root, schema leaf) slots.
    slot_feats = _reduce_instances(hdg, instance_feats, aggregators[1],
                                   strategy, order)

    # Level 1: schema-leaf slots -> roots.
    return _reduce_schema(hdg, slot_feats, aggregators[2], strategy, order)


def reduce_constant(hdg: HDG, values: np.ndarray,
                    aggregators: list[Aggregator],
                    strategy: ExecutionStrategy) -> np.ndarray:
    """``hierarchical_aggregate(hdg, values, ...)`` of an input no
    gradient flows into, as an array: the build of an HDG's memo
    (:meth:`HDG.memoized_reduction`).

    Runs off the tape, :data:`MEMO_BLOCK_COLUMNS` columns at a time (a
    column of a sum or mean is reduced alone, so the blocks give the
    bits one pass would), and its backend events say
    :data:`MEMOIZED`.  Per-edge rows a block materializes die with the
    block and are released from the materialized counter before the
    next one.
    """
    materialized = _obs_counter(MATERIALIZED_BYTES_COUNTER)
    out = np.empty((hdg.num_roots, values.shape[1]), dtype=values.dtype)
    with no_grad():
        for lo in range(0, values.shape[1], MEMO_BLOCK_COLUMNS):
            columns = slice(lo, lo + MEMO_BLOCK_COLUMNS)
            mark = materialized.current
            block = Tensor(np.ascontiguousarray(values[:, columns]))
            out[:, columns] = hierarchical_aggregate(
                hdg, block, aggregators, strategy, MEMOIZED).data
            materialized.release(materialized.current - mark)
    return out


def carried_projection(aggregators: list[Aggregator],
                       weight: Tensor) -> Tensor:
    """``weight`` widened by one column per attention (``scored``)
    level, ``[W | a_top ... a_bottom]``: the projection a
    :data:`PROJECT_FIRST` call of :func:`hierarchical_aggregate` reduces,
    in which each attention level takes the last column left."""
    scored = [agg for agg in aggregators if agg.scored]
    if not scored:
        return weight
    d_in = weight.shape[0]
    return concat([weight] + [agg.score_vector.reshape(d_in, 1)
                              for agg in reversed(scored)], axis=-1)


def _carried(agg: Aggregator, order: str) -> dict:
    """Backend kwargs of ``agg``: under :data:`PROJECT_FIRST` the values
    an attention level gets carry its score column as their last
    (``packed=True``); otherwise an attention level scores them itself."""
    return {"packed": True} if order == PROJECT_FIRST and agg.scored else {}


def _reduce_bottom(hdg: HDG, feats: Tensor, agg: Aggregator,
                   strategy: ExecutionStrategy, order: str) -> Tensor:
    """Leaves -> instances (depth 3) or leaves -> roots (depth 1)."""
    level = hdg.max_level
    if strategy is ExecutionStrategy.SA or not agg.supports_fused:
        def sparse_path():
            src = hdg.leaf_vertices
            gathered = feats[src]  # materializes one message per edge
            record_op("gather",
                      bytes_read=gathered.data.nbytes + src.nbytes,
                      bytes_written=gathered.data.nbytes)
            plan = hdg.plan(level, feats.shape[0]).pregathered()
            return agg.sparse(gathered, plan, hdg.leaf_weights,
                              **_carried(agg, order))
        return _run_backend("bottom", "sparse", strategy, agg, feats, order,
                            sparse_path)

    def fused_path():
        return agg.fused(feats, hdg.plan(level, feats.shape[0]),
                         hdg.leaf_weights, **_carried(agg, order))
    return _run_backend("bottom", "fused", strategy, agg, feats, order,
                        fused_path)


def _reduce_instances(hdg: HDG, instance_feats: Tensor, agg: Aggregator,
                      strategy: ExecutionStrategy, order: str) -> Tensor:
    """Instances -> slots.  Instances are consecutive per slot, so HA can
    reduce on the elided layout without building an index."""
    kwargs = _carried(agg, order)
    if strategy is ExecutionStrategy.HA and agg.supports_fused:
        return _run_backend(
            "instances", "fused", strategy, agg, instance_feats, order,
            lambda: agg.fused(instance_feats, hdg.plan(2), **kwargs),
        )
    return _run_backend(
        "instances", "sparse", strategy, agg, instance_feats, order,
        lambda: agg.sparse(instance_feats, hdg.plan(2), **kwargs),
    )


def _reduce_schema(hdg: HDG, slot_feats: Tensor, agg: Aggregator,
                   strategy: ExecutionStrategy, order: str) -> Tensor:
    """Slots -> roots.  The schema tree is regular (every root has exactly
    num_leaf_types slots), so HA uses the dense reshape trick of
    Figure 10; other strategies scatter."""
    num_leaves = hdg.schema.num_leaves
    if num_leaves == 1:
        # A single schema leaf: the slot features *are* the root features.
        return slot_feats
    if strategy is ExecutionStrategy.HA and agg.supports_dense:
        def dense_path():
            dim = slot_feats.shape[-1]
            reshaped = slot_feats.reshape(hdg.num_roots, num_leaves, dim)
            out = agg.dense(reshaped, **_carried(agg, order))
            # reshape is free (a view); the reduction costs one FLOP per
            # input element and streams the slot matrix once
            record_op("dense_reduce", flops=float(reshaped.data.size),
                      bytes_read=reshaped.data.nbytes,
                      bytes_written=out.data.nbytes)
            return out
        return _run_backend("schema", "dense", strategy, agg, slot_feats, order,
                            dense_path)

    return _run_backend(
        "schema", "sparse", strategy, agg, slot_feats, order,
        lambda: agg.sparse(slot_feats, hdg.plan(1), **_carried(agg, order)),
    )
