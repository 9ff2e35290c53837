"""Hierarchical dependency graphs (HDGs) with the compact storage of §4.1.

An HDG characterizes, per root vertex, how neighborhood features flow
bottom-up: input-graph *leaf* vertices -> *neighbor instances* -> schema
leaf types -> root.  This module stores the HDGs of **all** roots
collectively, in exactly the layout Figure 9 describes:

* **Subgraph of neighbor instances** (bottom level): CSC as two arrays —
  ``leaf_vertices`` (the paper's ``Dst_max``: leaf ids grouped by their
  instance) and ``leaf_offsets`` (``Offset_max``: one range per instance).
* **Subgraph in-between**: every instance has exactly one outgoing edge,
  so instances are ordered consecutively by their destination
  (root, schema-leaf) slot and the vertex array is *elided*; only
  ``instance_offsets`` (``Offset_2``) is kept.
* **Schema trees**: a single global :class:`~repro.core.schema.SchemaTree`
  shared by all roots; per-root copies are never materialized.

Flat models (GCN, PinSage) use ``depth == 1``: leaves group directly
under roots and the instance level disappears, matching Figure 3a-3b.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Hashable

import numpy as np

from ..graph.graph import group_by, range_positions
from ..obs import counter as _obs_counter
from ..tensor.plans import PlanMemo, ReductionPlan
from .schema import SchemaTree

__all__ = [
    "HDG",
    "hdg_from_graph",
    "hdg_from_flat_arrays",
    "hdg_from_instance_arrays",
]


class HDG:
    """Collective hierarchical dependency graph for a set of root vertices.

    Use one of the ``hdg_from_*`` array builders rather than the raw
    constructor.

    Attributes
    ----------
    roots:
        Root vertex ids (input-graph ids), in slot order.
    schema:
        The shared global schema tree.
    leaf_vertices, leaf_offsets:
        Bottom-level CSC (``Dst_max`` / ``Offset_max``).  For depth-1 HDGs
        ``leaf_offsets`` is indexed by root order; for depth-3 by
        neighbor-instance id.
    instance_offsets:
        ``Offset_2`` — per-(root, leaf-type) slot offsets into the
        instance id space; ``None`` for depth-1 HDGs.
    leaf_weights:
        Optional per-(leaf edge) weights (PinSage importance), stored
        float32; a reduction scales rows by them in the rows' dtype.
    persistent:
        Whether a holder keeps this HDG for more than one epoch, so a
        reduction of a constant input over it is worth memoizing
        (:meth:`memoized_reduction`).  ``False`` on construction; set by
        :class:`~repro.core.step.ModelHDGs` for a ``STATIC`` model's HDG
        and by the distributed trainers for the rank blocks cut from it.
    """

    def __init__(
        self,
        roots: np.ndarray,
        schema: SchemaTree,
        leaf_vertices: np.ndarray,
        leaf_offsets: np.ndarray,
        instance_offsets: np.ndarray | None = None,
        leaf_weights: np.ndarray | None = None,
        num_input_vertices: int | None = None,
    ):
        self._set_fields(roots, schema, leaf_vertices, leaf_offsets,
                         instance_offsets, leaf_weights, num_input_vertices)
        self._validate()

    def _set_fields(self, roots, schema, leaf_vertices, leaf_offsets,
                    instance_offsets, leaf_weights, num_input_vertices) -> None:
        """Adopt the arrays without copying (a memmap stays a memmap) and
        start empty memos; :meth:`_validate` is the separate full pass."""
        self.roots = np.asanyarray(roots, dtype=np.int64)
        self.schema = schema
        self.leaf_vertices = np.asanyarray(leaf_vertices, dtype=np.int64)
        self.leaf_offsets = np.asanyarray(leaf_offsets, dtype=np.int64)
        self.instance_offsets = (
            None if instance_offsets is None
            else np.asanyarray(instance_offsets, dtype=np.int64)
        )
        self.leaf_weights = None if leaf_weights is None else np.asarray(leaf_weights, dtype=np.float32)
        self.num_input_vertices = int(
            num_input_vertices
            if num_input_vertices is not None
            else (self.leaf_vertices.max() + 1 if self.leaf_vertices.size else 0)
        )
        self.persistent = False
        self._plans = PlanMemo()
        self._reductions = ReductionMemo()

    def _validate(self) -> None:
        if self.leaf_offsets.ndim != 1 or self.leaf_offsets.size == 0:
            raise ValueError("leaf_offsets must be a non-empty 1-D array")
        if np.any(np.diff(self.leaf_offsets) < 0):
            raise ValueError("leaf_offsets must be non-decreasing")
        if self.leaf_offsets[-1] != self.leaf_vertices.size:
            raise ValueError("leaf_offsets must cover leaf_vertices exactly")
        if self.leaf_weights is not None and self.leaf_weights.size != self.leaf_vertices.size:
            raise ValueError("leaf_weights must align with leaf_vertices")
        if self.instance_offsets is None:
            if self.leaf_offsets.size != self.roots.size + 1:
                raise ValueError("flat HDG: leaf_offsets must have num_roots + 1 entries")
        else:
            expected_slots = self.roots.size * self.schema.num_leaves + 1
            if self.instance_offsets.size != expected_slots:
                raise ValueError(
                    f"instance_offsets must have num_roots * num_leaf_types + 1 "
                    f"= {expected_slots} entries, got {self.instance_offsets.size}"
                )
            if np.any(np.diff(self.instance_offsets) < 0):
                raise ValueError("instance_offsets must be non-decreasing")
            if self.instance_offsets[-1] != self.num_instances:
                raise ValueError("instance_offsets must cover all neighbor instances")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """1 for flat HDGs (DNFA/INFA), 3 for hierarchical (INHA)."""
        return 1 if self.instance_offsets is None else 3

    @property
    def max_level(self) -> int:
        """The bottom (leaf) level index, as in Figure 3."""
        return self.depth

    @property
    def num_roots(self) -> int:
        return int(self.roots.size)

    @property
    def num_instances(self) -> int:
        """Number of neighbor instances (leaf edges for a flat HDG)."""
        return int(self.leaf_offsets.size - 1) if self.depth == 3 else int(self.leaf_vertices.size)

    @property
    def num_slots(self) -> int:
        """(root, schema-leaf) pairs — the destinations of the in-between level."""
        return self.num_roots * self.schema.num_leaves

    def instance_types(self) -> np.ndarray:
        """Schema-leaf type id per neighbor instance (depth-3 only)."""
        if self.depth != 3:
            raise ValueError("flat HDGs have no instance level")
        counts = np.diff(self.instance_offsets)
        slot_ids = np.repeat(np.arange(self.num_slots, dtype=np.int64), counts)
        return slot_ids % self.schema.num_leaves

    def instance_roots(self) -> np.ndarray:
        """Root order index per neighbor instance (depth-3 only)."""
        if self.depth != 3:
            raise ValueError("flat HDGs have no instance level")
        counts = np.diff(self.instance_offsets)
        slot_ids = np.repeat(np.arange(self.num_slots, dtype=np.int64), counts)
        return slot_ids // self.schema.num_leaves

    # ------------------------------------------------------------------
    # Level subgraphs (the `HDG.sub_graph(level=i)` of Figures 6-7)
    # ------------------------------------------------------------------
    def sub_graph(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """COO ``(dst_ids, src_ids)`` of the subgraph between ``level`` and
        ``level - 1``.

        Level numbering follows Figure 3: for a depth-3 HDG, level 3 are
        input-graph leaves (src ids are global vertex ids), level 2
        neighbor instances, level 1 schema-leaf slots, level 0 roots.
        For a depth-1 HDG only ``level == 1`` exists (leaves -> roots).
        """
        if self.depth == 1:
            if level != 1:
                raise ValueError(f"flat HDG has only level 1, got {level}")
            counts = np.diff(self.leaf_offsets)
            dst = np.repeat(np.arange(self.num_roots, dtype=np.int64), counts)
            return dst, self.leaf_vertices.copy()
        if level == 3:
            counts = np.diff(self.leaf_offsets)
            dst = np.repeat(np.arange(self.num_instances, dtype=np.int64), counts)
            return dst, self.leaf_vertices.copy()
        if level == 2:
            counts = np.diff(self.instance_offsets)
            dst = np.repeat(np.arange(self.num_slots, dtype=np.int64), counts)
            # The elided Dst array: sources are consecutive instance ids.
            return dst, np.arange(self.num_instances, dtype=np.int64)
        if level == 1:
            src = np.arange(self.num_slots, dtype=np.int64)
            return src // self.schema.num_leaves, src
        raise ValueError(f"depth-3 HDG has levels 1..3, got {level}")

    def leaf_counts(self) -> np.ndarray:
        """Leaf-vertex count per instance (depth 3) or per root (depth 1)."""
        return np.diff(self.leaf_offsets)

    def instance_counts_per_type(self) -> np.ndarray:
        """(num_roots, num_leaf_types) instance counts — the cost-model
        ``n_1..n_k`` variables of Section 5."""
        if self.depth == 1:
            return np.diff(self.leaf_offsets).reshape(-1, 1)
        counts = np.diff(self.instance_offsets)
        return counts.reshape(self.num_roots, self.schema.num_leaves)

    def restrict_to_roots(self, root_orders: np.ndarray) -> "HDG":
        """The sub-HDG owned by a subset of roots (given by root order).

        Used by distributed training: each shared-nothing worker holds the
        HDGs of its partition's root vertices (§5).  Leaf ids stay global
        — leaves may live on other workers, which is exactly what the
        synchronization accounting measures.
        """
        root_orders = np.asarray(root_orders, dtype=np.int64)
        sub_roots = self.roots[root_orders]
        if self.depth == 1:
            # Only the selected roots' offsets are read: a memmapped HDG
            # touches just their pages, and no call scans all n offsets.
            starts = np.asarray(self.leaf_offsets[root_orders], dtype=np.int64)
            counts = np.asarray(self.leaf_offsets[root_orders + 1],
                                dtype=np.int64) - starts
            gather = range_positions(starts, counts)
            new_offsets = np.zeros(root_orders.size + 1, dtype=np.int64)
            np.cumsum(counts, out=new_offsets[1:])
            return HDG(
                sub_roots, self.schema, self.leaf_vertices[gather], new_offsets,
                instance_offsets=None,
                leaf_weights=None if self.leaf_weights is None else self.leaf_weights[gather],
                num_input_vertices=self.num_input_vertices,
            )
        num_leaves = self.schema.num_leaves
        # Slot ranges for the selected roots (contiguous per root).
        slot_starts = root_orders * num_leaves
        slot_gather = range_positions(slot_starts, np.full(root_orders.size, num_leaves, dtype=np.int64))
        slot_counts = np.diff(self.instance_offsets)[slot_gather]
        new_instance_offsets = np.zeros(slot_gather.size + 1, dtype=np.int64)
        np.cumsum(slot_counts, out=new_instance_offsets[1:])
        # Instance ranges per selected slot.
        inst_starts = self.instance_offsets[slot_gather]
        inst_gather = range_positions(inst_starts, slot_counts)
        leaf_counts = np.diff(self.leaf_offsets)[inst_gather]
        new_leaf_offsets = np.zeros(inst_gather.size + 1, dtype=np.int64)
        np.cumsum(leaf_counts, out=new_leaf_offsets[1:])
        leaf_starts = self.leaf_offsets[inst_gather]
        leaf_gather = range_positions(leaf_starts, leaf_counts)
        return HDG(
            sub_roots, self.schema, self.leaf_vertices[leaf_gather], new_leaf_offsets,
            instance_offsets=new_instance_offsets,
            leaf_weights=None if self.leaf_weights is None else self.leaf_weights[leaf_gather],
            num_input_vertices=self.num_input_vertices,
        )

    def splice(self, sub: "HDG") -> "HDG":
        """This HDG with ``sub.roots``' slots replaced by ``sub``'s: how
        :func:`~repro.core.selection.reselect_metapath_hdg` repairs the
        roots an edge edit touched.

        Each run of untouched roots is copied as one contiguous slice
        with its offsets shifted, and ``sub``'s slots go in between; the
        result is a new, validated HDG (HDGs are never mutated, so plans
        memoized on this one stay valid).  Unweighted depth-3 HDGs only
        (metapath selection emits no leaf weights).  A schema or depth
        mismatch, leaf weights, or a root of ``sub`` this HDG does not
        have raises ``ValueError``.
        """
        if self.depth != 3 or sub.depth != 3:
            raise ValueError("splice needs two depth-3 HDGs")
        if sub.schema != self.schema:
            raise ValueError(
                f"cannot splice schema {sub.schema.leaf_types} into "
                f"{self.schema.leaf_types}")
        if self.leaf_weights is not None or sub.leaf_weights is not None:
            raise ValueError("splice does not carry leaf weights")
        pos = _root_orders(self, sub.roots)
        if np.unique(pos).size != pos.size:
            raise ValueError("splice roots must be distinct")
        if np.any(np.diff(pos) < 0):
            by_pos = np.argsort(pos)
            sub, pos = sub.restrict_to_roots(by_pos), pos[by_pos]
        L = self.schema.num_leaves
        slot_counts = np.diff(self.instance_offsets).reshape(self.num_roots, L)
        slot_counts[pos] = sub.instance_counts_per_type()
        instance_offsets = np.zeros(self.num_slots + 1, dtype=np.int64)
        np.cumsum(slot_counts, out=instance_offsets[1:])
        # The untouched roots before, between and after the spliced ones
        # form pos.size + 1 runs; each is copied as one instance range,
        # followed by the next spliced root's instances.
        run_lo = self.instance_offsets[np.concatenate([[0], pos + 1]) * L]
        run_hi = self.instance_offsets[np.concatenate([pos, [self.num_roots]]) * L]
        sub_lo = sub.instance_offsets[::L]
        parts = [(self, run_lo[0], run_hi[0])]
        for k in range(pos.size):
            parts += [(sub, sub_lo[k], sub_lo[k + 1]),
                      (self, run_lo[k + 1], run_hi[k + 1])]
        offsets, leaves = [], []
        shift = 0
        for src, lo, hi in parts:
            first, last = src.leaf_offsets[lo], src.leaf_offsets[hi]
            offsets.append(src.leaf_offsets[lo:hi] + (shift - first))
            leaves.append(src.leaf_vertices[first:last])
            shift += last - first
        offsets.append(np.array([shift], dtype=np.int64))
        return HDG(
            self.roots, self.schema, np.concatenate(leaves),
            np.concatenate(offsets), instance_offsets=instance_offsets,
            num_input_vertices=self.num_input_vertices,
        )

    def root_of_leaf_edges(self) -> np.ndarray:
        """Root order index per bottom-level edge slot (dependency map)."""
        if self.depth == 1:
            return np.repeat(
                np.arange(self.num_roots, dtype=np.int64), np.diff(self.leaf_offsets)
            )
        inst_root = self.instance_roots()
        return np.repeat(inst_root, np.diff(self.leaf_offsets))

    # ------------------------------------------------------------------
    # Reduction plans (the kernels' precomputed structure, one per level)
    # ------------------------------------------------------------------
    def plan(self, level: int, num_rows: int | None = None) -> ReductionPlan:
        """The :class:`~repro.tensor.plans.ReductionPlan` that reduces
        ``level`` into ``level - 1`` (numbered as in :meth:`sub_graph`),
        built on first use and kept for as long as this HDG lives.

        The bottom level gathers ``leaf_vertices`` out of a
        ``num_rows``-row feature matrix (``Dst_max`` / ``Offset_max``);
        the levels above reduce their own consecutive rows in place, the
        identity layout: level 2 of a depth-3 HDG over
        ``instance_offsets`` (the elided Dst array), level 1 over
        ``num_leaves`` slots per root.  SA reduces the same plans over
        the rows it gathered first (``plan.pregathered()``).

        HDG arrays are never mutated after construction (an edit builds
        a new HDG), so a memoized plan cannot go stale; the memo key is
        the call's shape, so a differently shaped call gets its own
        plan.  Plans are not part of :attr:`nbytes` and are not pickled.
        """
        return self._plans.get_or_build(
            (level, num_rows), lambda: self._build_plan(level, num_rows))

    def _build_plan(self, level: int, num_rows: int | None) -> ReductionPlan:
        if level == self.max_level and num_rows is not None:
            return ReductionPlan.from_segments(
                self.leaf_offsets, self.leaf_vertices, num_rows)
        if self.depth == 3 and level == 2 and num_rows is None:
            return ReductionPlan.from_segments(
                self.instance_offsets, None, self.num_instances)
        if self.depth == 3 and level == 1 and num_rows is None:
            return ReductionPlan.from_segments(
                np.arange(0, self.num_slots + 1, self.schema.num_leaves),
                None, self.num_slots)
        raise ValueError(
            f"no plan for level {level} of a depth-{self.depth} HDG "
            f"(num_rows={num_rows}; only the bottom level gathers rows)"
        )

    # ------------------------------------------------------------------
    # Reductions of constant inputs (kept only by an HDG that outlives
    # the epoch)
    # ------------------------------------------------------------------
    def memoized_reduction(self, key: Hashable, values: np.ndarray,
                           build: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """``build(values)``, the reduction ``key`` names, memoized for
        as long as this HDG lives (:class:`ReductionMemo`), like its
        plans.  Callers ask only when :attr:`persistent` holds; a
        pickled HDG (a rank block shipped to its worker) keeps the mark,
        not the memo."""
        return self._reductions.get_or_build(key, values, build)

    # ------------------------------------------------------------------
    # Memory accounting (Table 5 and the storage ablation)
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the optimized storage actually kept."""
        total = self.leaf_vertices.nbytes + self.leaf_offsets.nbytes + self.roots.nbytes
        if self.instance_offsets is not None:
            total += self.instance_offsets.nbytes
        if self.leaf_weights is not None:
            total += self.leaf_weights.nbytes
        total += self.schema.nbytes  # single global tree
        return int(total)

    @property
    def nbytes_unoptimized(self) -> int:
        """Bytes a naive CSC-per-level store would need: an explicit Dst
        array for the in-between level plus one schema-tree copy per root."""
        total = self.nbytes
        if self.depth == 3:
            total += 8 * self.num_instances  # the elided Dst_2
            total += self.schema.nbytes * (self.num_roots - 1)  # per-root copies
        return int(total)

    def __repr__(self) -> str:
        return (
            f"HDG(depth={self.depth}, num_roots={self.num_roots}, "
            f"num_instances={self.num_instances}, "
            f"num_leaf_edges={self.leaf_vertices.size}, schema={self.schema.leaf_types})"
        )


#: counters of :class:`ReductionMemo`: memos built, memos reused, and
#: the bytes memos hold (each memo and its check copy; released when an
#: entry is replaced or its HDG is freed)
MEMO_BUILD_COUNTER = "reduce.memo.build"
MEMO_HIT_COUNTER = "reduce.memo.hit"
MEMO_BYTES_COUNTER = "reduce.memo.bytes"


class ReductionMemo:
    """The reductions of constant inputs one HDG has computed.

    One entry per key (the reduction: level UDFs and strategy) holds the
    result and a copy of the input it was built from.  An entry is
    reused only when the input's bytes equal that copy's, so an
    in-place edit or a different array of the same shape rebuilds it:
    whether a call hits never depends on which array object it got.
    Memos are vertex-level state (one row per root), counted under
    ``reduce.memo.bytes``, never as per-edge materialized bytes.
    """

    def __init__(self) -> None:
        self._entries: dict[Hashable, tuple[np.ndarray, np.ndarray]] = {}
        #: bytes held, in a cell the finalizer reads once this memo dies
        #: (set up by the first build: a transient HDG registers none)
        self._held: list[int] | None = None
        self._lock = threading.Lock()

    def __reduce__(self):
        # Derived from arrays the receiver holds itself: a pickled HDG
        # rebuilds its own entries.
        return (ReductionMemo, ())

    def get_or_build(self, key: Hashable, values: np.ndarray,
                     build: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and _same_bytes(entry[0], values):
                _obs_counter(MEMO_HIT_COUNTER).add(1)
                return entry[1]
            reduced = build(values)
            source = np.array(values, order="C")
            if self._held is None:
                self._held = [0]
                weakref.finalize(self, _release_memo_bytes, self._held)
            if entry is not None:
                freed = entry[0].nbytes + entry[1].nbytes
                self._held[0] -= freed
                _obs_counter(MEMO_BYTES_COUNTER).release(freed)
            self._entries[key] = (source, reduced)
            held = source.nbytes + reduced.nbytes
            self._held[0] += held
            _obs_counter(MEMO_BUILD_COUNTER).add(1)
            _obs_counter(MEMO_BYTES_COUNTER).add(held)
            return reduced


def _release_memo_bytes(held: list[int]) -> None:
    if held[0]:
        _obs_counter(MEMO_BYTES_COUNTER).release(held[0])


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same bytes: same dtype and shape, and
    equal bit patterns (so ``-0.0`` differs from ``0.0``, and a NaN
    equals itself)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.itemsize}") if a.itemsize in (1, 2, 4, 8) else None
    if bits is None:
        return a.tobytes() == b.tobytes()
    return bool(np.array_equal(np.ascontiguousarray(a).view(bits),
                               np.ascontiguousarray(b).view(bits)))


def _root_orders(hdg: HDG, roots: np.ndarray) -> np.ndarray:
    """Slot order of each of ``roots`` in ``hdg``; ``ValueError`` for a
    root it does not have."""
    roots = np.asarray(roots, dtype=np.int64)
    order = _order_of(hdg.roots, hdg.num_input_vertices)
    inside = (roots >= 0) & (roots < order.size)
    pos = np.full(roots.size, -1, dtype=np.int64)
    pos[inside] = order[roots[inside]]
    missing = np.flatnonzero(pos < 0)
    if missing.size:
        raise ValueError(f"root {int(roots[missing[0]])} is not in this HDG")
    return pos


def _order_of(roots: np.ndarray, num_input_vertices: int) -> np.ndarray:
    order = np.full(num_input_vertices, -1, dtype=np.int64)
    order[roots] = np.arange(roots.size)
    return order


def hdg_from_flat_arrays(
    schema: SchemaTree,
    roots: np.ndarray,
    owner_roots: np.ndarray,
    leaf_ids: np.ndarray,
    weights: np.ndarray | None,
    num_input_vertices: int,
) -> HDG:
    """Vectorized flat-HDG construction from parallel arrays.

    ``owner_roots[i]`` owns neighbor ``leaf_ids[i]`` (optionally weighted):
    what a flat NeighborSelection (PinSage's, PageRank's) emits.
    """
    roots = np.asarray(roots, dtype=np.int64)
    owner_roots = np.asarray(owner_roots, dtype=np.int64)
    leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
    order = _order_of(roots, num_input_vertices)
    owner_order = order[owner_roots]
    if owner_order.size and owner_order.min() < 0:
        raise ValueError("owner root not in the HDG root set")
    leaf_offsets, perm = group_by(owner_order, roots.size)
    return HDG(
        roots, schema, leaf_ids[perm], leaf_offsets,
        instance_offsets=None,
        leaf_weights=None if weights is None else np.asarray(weights, dtype=np.float32)[perm],
        num_input_vertices=num_input_vertices,
    )


def hdg_from_instance_arrays(
    schema: SchemaTree,
    roots: np.ndarray,
    instance_roots: np.ndarray,
    instance_types: np.ndarray,
    leaf_flat: np.ndarray,
    leaf_counts: np.ndarray,
    num_input_vertices: int,
    weights: np.ndarray | None = None,
) -> HDG:
    """Vectorized depth-3 HDG construction from instance arrays.

    ``instance_roots``/``instance_types`` describe one neighbor instance
    per entry; instance ``i`` owns ``leaf_counts[i]`` consecutive vertices
    in ``leaf_flat``; ``weights`` is one per leaf.  These four arrays are
    what every hierarchical NeighborSelection emits (metapath instances,
    anchor sets, distance rings).  This is the top-down construction of
    Section 4.1: instances are grouped by their (root, type) slot, kept
    in emission order within a slot (which is what lets the in-between
    Dst array be elided), and their leaves follow them.
    """
    roots = np.asarray(roots, dtype=np.int64)
    instance_roots = np.asarray(instance_roots, dtype=np.int64)
    instance_types = np.asarray(instance_types, dtype=np.int64)
    leaf_flat = np.asarray(leaf_flat, dtype=np.int64)
    leaf_counts = np.asarray(leaf_counts, dtype=np.int64)
    if not instance_roots.size == instance_types.size == leaf_counts.size:
        raise ValueError("instance roots, types and leaf counts must align")
    if instance_types.size and (instance_types.min() < 0
                                or instance_types.max() >= schema.num_leaves):
        raise ValueError(
            f"instance type out of range for a schema with "
            f"{schema.num_leaves} leaf types")
    if leaf_counts.size and leaf_counts.min() <= 0:
        raise ValueError("every neighbor instance needs at least one leaf vertex")
    if leaf_counts.sum() != leaf_flat.size:
        raise ValueError("leaf_counts must cover leaf_flat exactly")
    order = _order_of(roots, num_input_vertices)
    owner_order = order[instance_roots]
    if owner_order.size and owner_order.min() < 0:
        raise ValueError("instance root not in the HDG root set")
    num_leaves = schema.num_leaves
    slots = owner_order * num_leaves + instance_types
    instance_offsets, perm = group_by(slots, roots.size * num_leaves)

    # Permute ragged leaf groups into slot order.
    src_offsets = np.zeros(leaf_counts.size + 1, dtype=np.int64)
    np.cumsum(leaf_counts, out=src_offsets[1:])
    new_counts = leaf_counts[perm]
    leaf_offsets = np.zeros(leaf_counts.size + 1, dtype=np.int64)
    np.cumsum(new_counts, out=leaf_offsets[1:])
    # gather[j] = position in leaf_flat of the j-th leaf after permutation
    gather = range_positions(src_offsets[perm], new_counts)
    leaf_vertices = leaf_flat[gather]
    return HDG(
        roots, schema, leaf_vertices, leaf_offsets,
        instance_offsets=instance_offsets,
        leaf_weights=None if weights is None else np.asarray(weights, dtype=np.float32)[gather],
        num_input_vertices=num_input_vertices,
    )


def hdg_from_graph(graph, weights: np.ndarray | None = None) -> HDG:
    """Flat HDG over a graph's own CSC arrays: no copy, no pass.

    This is the DNFA fast path: "FlexGraph does not construct extra HDGs
    for GCN, since the input graph serves the desired purpose" (§7.8).
    Each vertex's neighbors are its in-neighbors; ``leaf_vertices`` and
    ``leaf_offsets`` *are* the graph's CSC (read-only, memmapped when
    the graph is), which is valid by construction or vouched for by an
    on-disk manifest, so the offsets are not validated again.
    ``weights`` optionally attaches a per-in-edge weight in CSC order.
    """
    indptr, indices = graph.csc
    if weights is not None and np.size(weights) != indices.size:
        raise ValueError("leaf_weights must align with leaf_vertices")
    hdg = HDG.__new__(HDG)
    hdg._set_fields(np.arange(graph.num_vertices, dtype=np.int64),
                    SchemaTree(), indices, indptr, None, weights,
                    graph.num_vertices)
    return hdg
