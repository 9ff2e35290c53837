"""The step core every epoch loop is built on.

A GNN is one NAU program; full-batch, sampled, partitioned and
multi-process training differ in *where batches come from* and *how
workers talk*, not in what a training step is.  This module owns the
five decisions those loops used to re-make by hand:

* :class:`ModelHDGs` — when the model-level HDG NeighborSelection built
  goes stale (``SelectionScope``), who rebuilds it, and that its roots
  are every vertex in id order;
* the block forward — a seed batch becomes per-layer blocks
  (:func:`build_seed_blocks`), is relabeled into batch-local
  coordinates (:func:`compact_blocks`) and runs there
  (:func:`run_local_blocks`).  One layer over one block is
  :meth:`GNNLayer.forward(rows=...) <repro.core.nau.GNNLayer.forward>`;
  the full graph is the one-block case (``rows=None``);
* :class:`Partition` — validated vertex → worker labels and the
  per-worker root orders;
* :func:`train_step` and the two loss heads, :func:`node_loss` and
  :func:`link_loss`;
* what an ``epoch`` event counts (:func:`epoch_mark`,
  :func:`epoch_counts`).

Fan-out sampling is the FlexGraph-native answer to Euler/DistDGL-style
training: the paper shows mini-batch systems collapse on GCN because
they expand *full* k-hop neighborhoods per batch (§7.1).  Because flat
HDGs already group each root's neighbors contiguously, sampling draws
``fanout`` positions inside each selected root's segment, and the
per-layer blocks are just root-restricted sub-HDGs.  A hierarchical
(depth-3) HDG is cut into full-neighborhood blocks (``fanout=None``);
its models bound their instances at selection time instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..graph.graph import Graph, range_positions
from ..obs.profile import BYTES_READ_COUNTER, BYTES_WRITTEN_COUNTER, FLOPS_COUNTER
from ..tensor.loss import binary_cross_entropy_with_logits, cross_entropy
from ..tensor.nn import as_param_dtype
from ..tensor.ops import concat, scatter_rows
from ..tensor.optim import Optimizer
from ..tensor.plans import PLAN_HIT_COUNTER, PLAN_MISS_COUNTER
from ..tensor.tensor import Tensor
from .hdg import HDG, MEMO_BUILD_COUNTER, MEMO_HIT_COUNTER
from .nau import NAUModel, SelectionScope

__all__ = [
    "ModelHDGs",
    "sample_fanout",
    "build_block",
    "build_seed_blocks",
    "CompactBlocks",
    "compact_blocks",
    "sample_blocks",
    "run_local_blocks",
    "Partition",
    "train_step",
    "node_loss",
    "edge_scores",
    "link_loss",
    "epoch_mark",
    "epoch_counts",
]


# ----------------------------------------------------------------------
# HDG lifecycle (NAU's caching discussion, Section 3.2)
# ----------------------------------------------------------------------
class ModelHDGs:
    """The one model-level HDG of a (model, graph) pair.

    NeighborSelection runs once per model, never per layer: every layer
    aggregates over the one HDG it built, rebuilt as the model's scope
    says.  A ``STATIC`` HDG is built once and marked
    :attr:`~repro.core.hdg.HDG.persistent`, since it outlives the
    epoch; a ``PER_EPOCH`` one whenever the epoch changes.

    Every HDG built or pinned here must root every vertex in id order:
    blocks, rank slices and :class:`Partition` read a root's position as
    its vertex id, so any other layout would pair one vertex's self term
    with another vertex's aggregate.  It is checked once per HDG, where
    the HDG enters, so every runtime refuses the same models.

    ``span``, when given, names the obs span builds run under (the
    distributed trainers report selection time from it).
    """

    def __init__(self, model: NAUModel, graph: Graph,
                 rng: np.random.Generator, span: str | None = None):
        self.model = model
        self.graph = graph
        self.rng = rng
        self.span = span
        #: the cached model-level HDG (``None`` until first needed)
        self.model_hdg: HDG | None = None
        #: seconds the latest :meth:`model_level` call spent building
        #: (0.0 when it reused the cache)
        self.build_seconds = 0.0
        self._epoch = -1

    def invalidate(self) -> None:
        """Drop the cached HDG (e.g. after the graph changed)."""
        self.model_hdg = None
        self._epoch = -1

    def pin(self, hdg: HDG, epoch: int = 0) -> None:
        """Install an externally built model-level HDG (one an edge edit
        repaired, or the exact HDG a training engine used) as if
        NeighborSelection had produced it at ``epoch``."""
        self._check_roots(hdg)
        self.model_hdg = hdg
        self._epoch = epoch

    def _check_roots(self, hdg: HDG) -> None:
        n = self.graph.num_vertices
        if not np.array_equal(hdg.roots, np.arange(n, dtype=np.int64)):
            raise ValueError(
                f"model {self.model.name!r}: NeighborSelection must root "
                f"every vertex in id order (0..{n - 1}), but its HDG's "
                f"{hdg.num_roots} roots are not that sequence"
            )

    def _build(self, epoch: int) -> HDG:
        if self.span is None:
            hdg = self.model.neighbor_selection(self.graph, self.rng)
        else:
            with obs.span(self.span, epoch=epoch) as s_sel:
                hdg = self.model.neighbor_selection(self.graph, self.rng)
                obs.record_op("neighbor_selection.hdg", bytes_read=hdg.nbytes)
            self.build_seconds = s_sel.duration
        self._check_roots(hdg)
        return hdg

    def model_level(self, epoch: int = 0) -> tuple[HDG, bool]:
        """``(hdg, rebuilt)``: the one HDG every layer of the model uses.

        ``rebuilt`` is true when this call ran NeighborSelection, i.e.
        anything derived from the previous HDG (worker slices,
        dependency statistics, shipped sub-HDGs) is now stale.
        """
        if (self.model.selection_scope is SelectionScope.PER_EPOCH
                and self._epoch != epoch):
            self.model_hdg = None
        self._epoch = epoch
        self.build_seconds = 0.0
        rebuilt = self.model_hdg is None
        if rebuilt:
            self.model_hdg = self._build(epoch)
        if self.model.selection_scope is SelectionScope.STATIC:
            # Kept run-long (built or pinned): a reduction of a constant
            # input over it is worth memoizing.
            self.model_hdg.persistent = True
        return self.model_hdg, rebuilt


# ----------------------------------------------------------------------
# Blocks: seed batch -> per-layer sub-HDGs -> batch-local coordinates
# ----------------------------------------------------------------------
def _floyd_positions(degrees: np.ndarray, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Row ``i`` is a uniform ``k``-subset of ``range(degrees[i])``,
    sorted; every degree must be at least ``k``.

    Floyd's algorithm, one step for all rows at a time: step ``s`` draws
    ``t`` uniformly from ``0..j`` with ``j = degree - k + s`` and keeps
    ``t``, or ``j`` when ``t`` is already kept.  The work is ``k`` draws
    per row, whatever the degree.
    """
    picks = np.empty((degrees.size, k), dtype=np.int64)
    for step in range(k):
        top = degrees - k + step
        t = rng.integers(0, top + 1)
        taken = (picks[:, :step] == t[:, None]).any(axis=1)
        picks[:, step] = np.where(taken, top, t)
    picks.sort(axis=1)
    return picks


def _check_fanout(hdg: HDG, fanout: int,
                  rng: np.random.Generator | None) -> None:
    if hdg.depth != 1:
        raise ValueError(
            "fan-out sampling applies to flat HDGs; a hierarchical HDG "
            "takes fanout None (full neighborhoods, bounded at selection "
            "time, e.g. by max_instances_per_root)"
        )
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    if rng is None:
        raise ValueError("fan-out sampling needs an rng")


def _fanout_block(hdg: HDG, root_orders: np.ndarray, fanout: int,
                  rng: np.random.Generator) -> HDG:
    """The sub-HDG of ``root_orders`` with at most ``fanout`` uniformly
    chosen leaves per root, kept in CSC order.

    Only the selected roots' offsets and the kept ``leaf_vertices``
    entries are read (counted as the ``sample.fanout`` op), so the cost
    is O(roots × fanout) however large the degrees.  When any root is
    sampled, PinSage-style importance weights are renormalized over the
    kept edges so the weighted sum stays a proper average.
    """
    starts = np.asarray(hdg.leaf_offsets[root_orders], dtype=np.int64)
    degrees = np.asarray(hdg.leaf_offsets[root_orders + 1],
                         dtype=np.int64) - starts
    counts = np.minimum(degrees, fanout)
    offsets = np.zeros(root_orders.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    gather = range_positions(starts, counts)
    sampled = np.flatnonzero(degrees > fanout)
    if sampled.size:
        slots = offsets[sampled, None] + np.arange(fanout)
        gather[slots] = starts[sampled, None] + _floyd_positions(
            degrees[sampled], fanout, rng)
    leaves = np.asarray(hdg.leaf_vertices[gather], dtype=np.int64)
    obs.record_op("sample.fanout", bytes_read=leaves.nbytes)
    weights = None
    if hdg.leaf_weights is not None:
        weights = hdg.leaf_weights[gather]
        if sampled.size:
            owner = np.repeat(np.arange(root_orders.size), counts)
            sums = np.bincount(owner, weights=weights,
                               minlength=root_orders.size)
            weights = weights / np.maximum(sums[owner], 1e-12)
    return HDG(
        hdg.roots[root_orders], hdg.schema, leaves, offsets,
        instance_offsets=None, leaf_weights=weights,
        num_input_vertices=hdg.num_input_vertices,
    )


def sample_fanout(hdg: HDG, fanout: int, rng: np.random.Generator) -> HDG:
    """Uniformly keep at most ``fanout`` leaves per root of a flat HDG:
    :func:`build_block` over every root.  Returns ``hdg`` itself when no
    root has more than ``fanout`` leaves."""
    _check_fanout(hdg, fanout, rng)
    if not (np.diff(hdg.leaf_offsets) > fanout).any():
        return hdg
    return _fanout_block(hdg, np.arange(hdg.num_roots, dtype=np.int64),
                         fanout, rng)


def build_block(hdg: HDG, vertices: np.ndarray, fanout: int | None = None,
                rng: np.random.Generator | None = None) -> HDG:
    """One layer's seed-restricted block: the sub-HDG rooted at
    ``vertices``, optionally fan-out sampled.

    Requires a model-level HDG from :class:`ModelHDGs` (vertex ids
    double as root orders).  ``fanout=None`` keeps the full
    neighborhoods (exact inference); a positive ``fanout`` keeps a
    uniform ``fanout``-subset of each larger neighborhood (flat HDGs
    only) and needs ``rng``.
    """
    root_orders = np.asarray(vertices, dtype=np.int64)
    if fanout is None:
        return hdg.restrict_to_roots(root_orders)
    _check_fanout(hdg, fanout, rng)
    return _fanout_block(hdg, root_orders, fanout, rng)


def build_seed_blocks(
    hdg: HDG,
    seeds: np.ndarray,
    fanouts: list[int | None],
    rng: np.random.Generator | None = None,
) -> list[tuple[HDG, np.ndarray]]:
    """Per-layer ``(block HDG, output vertices)``, input layer first.

    Built top-down: the last layer needs the seeds; each earlier layer
    needs everything the next layer's block references.  ``fanouts``
    entries may be ``None`` for exact full-neighborhood blocks.  The
    union is marked in one table over the vertex ids, as
    :func:`compact_blocks` does, so no step sorts the ids.
    """
    needed = np.zeros(hdg.num_input_vertices, dtype=bool)
    needed[np.asarray(seeds, dtype=np.int64)] = True
    need = np.flatnonzero(needed)
    reversed_blocks: list[tuple[HDG, np.ndarray]] = []
    for fanout in reversed(list(fanouts)):
        block = build_block(hdg, need, fanout, rng)
        reversed_blocks.append((block, need))
        needed[block.leaf_vertices] = True
        need = np.flatnonzero(needed)
    return list(reversed(reversed_blocks))


@dataclass
class CompactBlocks:
    """Seed blocks relabeled into batch-local coordinates.

    ``input_vertices`` (sorted unique global ids) is the batch's feature
    universe; every block's leaf/root ids are positions into it, so the
    whole forward pass runs on arrays of size O(batch) — never O(graph).
    """

    input_vertices: np.ndarray
    blocks: list[tuple[HDG, np.ndarray]]   # (local block, local out rows)
    seed_rows: np.ndarray                  # final-layer rows of the seeds

    @property
    def num_local(self) -> int:
        return int(self.input_vertices.size)


def compact_blocks(blocks: list[tuple[HDG, np.ndarray]],
                   seeds: np.ndarray) -> CompactBlocks:
    """Relabel :func:`build_seed_blocks` output into local coordinates.

    The universe is marked in a table over the block's id space rather
    than sorted out of the ids: one pass over the ids, with no sort and
    no binary search per id — the two costs that dominated relabeling a
    distributed rank's block, whose leaves number in the millions.
    """
    first_block, first_out = blocks[0]
    in_universe = np.zeros(first_block.num_input_vertices, dtype=bool)
    in_universe[first_out] = True
    in_universe[first_block.leaf_vertices] = True
    input_vertices = np.flatnonzero(in_universe)
    position = np.empty(in_universe.size, dtype=np.int64)
    position[input_vertices] = np.arange(input_vertices.size)

    def local(ids: np.ndarray) -> np.ndarray:
        return position[ids]

    local_blocks: list[tuple[HDG, np.ndarray]] = []
    for block, out_vertices in blocks:
        out_local = local(out_vertices)
        local_blocks.append((
            HDG(
                out_local, block.schema, local(block.leaf_vertices),
                block.leaf_offsets, instance_offsets=block.instance_offsets,
                leaf_weights=block.leaf_weights,
                num_input_vertices=input_vertices.size,
            ),
            out_local,
        ))
    return CompactBlocks(
        input_vertices=input_vertices,
        blocks=local_blocks,
        seed_rows=local(np.asarray(seeds, dtype=np.int64)),
    )


def sample_blocks(hdg: HDG, seeds: np.ndarray, fanouts: list[int | None],
                  rng: np.random.Generator | None = None) -> CompactBlocks:
    """A seed batch's sampled blocks, already in local coordinates."""
    return compact_blocks(build_seed_blocks(hdg, seeds, fanouts, rng), seeds)


def run_local_blocks(model: NAUModel, compact: CompactBlocks, feats: Tensor,
                     strategy) -> Tensor:
    """Layer-wise forward over local-coordinate blocks.

    ``feats`` holds the gathered input rows (one per
    ``input_vertices``), cast to the model's parameter dtype; the result
    stays in the same local universe — index it with
    ``compact.seed_rows`` for the seed logits.
    """
    h = as_param_dtype(model, feats)
    for layer, (block, out_local) in zip(model.layers, compact.blocks):
        h_rows = layer.forward(h, block, strategy, rows=out_local)
        h = scatter_rows(h_rows, out_local, compact.num_local)
    return h


# ----------------------------------------------------------------------
# Partition: vertex -> worker
# ----------------------------------------------------------------------
class Partition:
    """A validated vertex → worker assignment (from Hash/PuLP/ADB).

    ``parts[w]`` are worker ``w``'s vertices in id order — equivalently
    its root orders in any model-level HDG (see :class:`ModelHDGs`).
    Everything here depends only on the fixed labels, so it is computed
    once instead of per layer per epoch.
    """

    def __init__(self, labels: np.ndarray, num_vertices: int):
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (num_vertices,):
            raise ValueError("partition labels must cover every vertex")
        negative = np.flatnonzero(self.labels < 0)
        if negative.size:
            v = int(negative[0])
            raise ValueError(
                f"partition label of vertex {v} is negative "
                f"({int(self.labels[v])}); worker labels start at 0"
            )
        self.k = int(self.labels.max()) + 1
        self.parts = [np.flatnonzero(self.labels == w) for w in range(self.k)]


# ----------------------------------------------------------------------
# The optimise step and the two loss heads
# ----------------------------------------------------------------------
def train_step(loss: Tensor, optimizer: Optimizer) -> None:
    """Clear stale gradients, backpropagate ``loss``, apply the update."""
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()


def node_loss(logits: Tensor, labels: np.ndarray,
              mask: np.ndarray | None = None) -> Tensor:
    """Node-classification head: cross-entropy over the (masked) rows."""
    return cross_entropy(logits, labels, mask)


def edge_scores(embeddings: Tensor, edges: np.ndarray) -> Tensor:
    """Dot-product decoder: one logit per ``(head, tail)`` row."""
    return (embeddings[edges[:, 0]] * embeddings[edges[:, 1]]).sum(axis=1)


def link_loss(embeddings: Tensor, pos: np.ndarray, neg: np.ndarray) -> Tensor:
    """Link-scoring head: BCE of positive vs negative edge logits."""
    logits = concat([edge_scores(embeddings, pos).reshape(-1, 1),
                     edge_scores(embeddings, neg).reshape(-1, 1)], axis=0)
    targets = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
    return binary_cross_entropy_with_logits(logits.reshape(-1), targets)


# ----------------------------------------------------------------------
# What an ``epoch`` event counts
# ----------------------------------------------------------------------
#: each count an ``epoch`` event carries: its type and the obs counters
#: it sums
_EPOCH_COUNTS = {
    "flops": (float, (FLOPS_COUNTER,)),
    "work_bytes": (float, (BYTES_READ_COUNTER, BYTES_WRITTEN_COUNTER)),
    "plan_hits": (int, (PLAN_HIT_COUNTER,)),
    "plan_misses": (int, (PLAN_MISS_COUNTER,)),
    "memo_hits": (int, (MEMO_HIT_COUNTER,)),
    "memo_builds": (int, (MEMO_BUILD_COUNTER,)),
}


def epoch_mark() -> dict[str, float]:
    """The obs counter totals :func:`epoch_counts` differences."""
    reg = obs.get_registry()
    return {name: reg.counter(name).total
            for _, names in _EPOCH_COUNTS.values() for name in names}


def epoch_counts(mark: dict[str, float]) -> dict:
    """What an ``epoch`` event counts since ``mark``: ``flops``,
    ``work_bytes``, ``plan_hits`` / ``plan_misses`` and ``memo_hits`` /
    ``memo_builds``.  Read off the obs counters, so the counts include
    whatever worker processes merged into this registry."""
    now = epoch_mark()
    return {field: kind(sum(now[name] - mark[name] for name in names))
            for field, (kind, names) in _EPOCH_COUNTS.items()}
