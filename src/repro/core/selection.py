"""NeighborSelection executors: the UDFs of Figure 5, run in bulk.

Each function here plays the role of one of the paper's ``nbr_udf``
examples — it consults the input graph through the graph engine and emits
:class:`~repro.core.schema.NeighborRecord` rows, which
:func:`~repro.core.hdg.build_hdg` then compacts into the HDG layout.

* :func:`select_metapath_neighbors` — MAGNN's metapath-instance matching;
* :func:`select_anchor_set_neighbors` — P-GNN's anchor sets;
* :func:`select_distance_ring_neighbors` — JK-Net's shortest-path rings.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from ..graph.metapath import Metapath, find_metapath_instances
from ..graph.traversal import bfs_levels
from .schema import NeighborRecord, SchemaTree

__all__ = [
    "select_metapath_neighbors",
    "select_anchor_set_neighbors",
    "select_distance_ring_neighbors",
]


def select_metapath_neighbors(
    graph: Graph,
    metapaths: list[Metapath],
    roots: np.ndarray | None = None,
    max_instances_per_root: int | None = None,
) -> list[NeighborRecord]:
    """Metapath-instance neighborhoods (INHA, Figure 5's ``magnn_nbr``).

    Each matched instance becomes one hierarchical record whose leaves are
    the instance's member vertices and whose type is the metapath index.
    """
    instances = find_metapath_instances(graph, metapaths, roots, max_instances_per_root)
    return [
        NeighborRecord(inst.root, inst.vertices, inst.metapath_index)
        for inst in instances
    ]


def select_anchor_set_neighbors(
    graph: Graph,
    num_anchor_sets: int,
    anchor_set_size: int,
    roots: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> list[NeighborRecord]:
    """P-GNN anchor sets: ``num_anchor_sets`` random vertex sets shared by
    all roots; each root's i-th neighbor is the i-th anchor set.

    The schema tree has a single ``anchor_set`` leaf and each root has
    ``num_anchor_sets`` instances under it (the paper's three-level HDG
    for P-GNN, Section 3.2).
    """
    if roots is None:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
    rng = rng or np.random.default_rng(0)
    if num_anchor_sets <= 0 or anchor_set_size <= 0:
        raise ValueError("anchor-set count and size must be positive")
    sets = [
        tuple(int(v) for v in rng.choice(graph.num_vertices, size=min(anchor_set_size, graph.num_vertices), replace=False))
        for _ in range(num_anchor_sets)
    ]
    records = []
    for v in np.asarray(roots, dtype=np.int64):
        for anchor_set in sets:
            records.append(NeighborRecord(int(v), anchor_set, 0))
    return records


def select_distance_ring_neighbors(
    graph: Graph,
    max_distance: int,
    roots: np.ndarray | None = None,
) -> list[NeighborRecord]:
    """JK-Net rings: the i-th neighbor of ``v`` is the set of vertices at
    shortest-path distance exactly ``i`` (1 <= i <= max_distance).

    The schema tree has one leaf per distance (``ring_1..ring_k``) and
    exactly one instance per (root, ring) when the ring is non-empty.
    """
    if max_distance <= 0:
        raise ValueError("max_distance must be positive")
    if roots is None:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
    records = []
    for v in np.asarray(roots, dtype=np.int64):
        levels = bfs_levels(graph, int(v), "both")
        for d in range(1, max_distance + 1):
            ring = np.flatnonzero(levels == d)
            if ring.size:
                records.append(NeighborRecord(int(v), tuple(int(u) for u in ring), d - 1))
    return records


def build_metapath_hdg(
    graph: Graph,
    metapaths: list[Metapath],
    max_instances_per_root: int | None = None,
):
    """Bulk NeighborSelection for MAGNN: match instances and compact them
    straight into a depth-3 HDG.

    Uses the vectorized length-3 edge-join matcher when every metapath has
    3 vertices (the evaluation setup), falling back to the DFS matcher +
    record path otherwise.  Both produce identical HDGs.
    """
    from ..graph.metapath import match_length3_metapath
    from .hdg import build_hdg, hdg_from_instance_arrays

    roots = np.arange(graph.num_vertices, dtype=np.int64)
    schema = schema_for_metapaths(metapaths)
    if all(mp.length == 3 for mp in metapaths):
        blocks = []
        type_blocks = []
        for mp_idx, mp in enumerate(metapaths):
            inst = match_length3_metapath(graph, mp, max_instances_per_root)
            if inst.size:
                blocks.append(inst)
                type_blocks.append(np.full(inst.shape[0], mp_idx, dtype=np.int64))
        if not blocks:
            empty = np.empty(0, dtype=np.int64)
            return hdg_from_instance_arrays(
                schema, roots, empty, empty, empty, empty, graph.num_vertices
            )
        instances = np.concatenate(blocks, axis=0)
        types = np.concatenate(type_blocks)
        return hdg_from_instance_arrays(
            schema,
            roots,
            instances[:, 0],
            types,
            instances.reshape(-1),
            np.full(instances.shape[0], 3, dtype=np.int64),
            graph.num_vertices,
        )
    records = select_metapath_neighbors(
        graph, metapaths, max_instances_per_root=max_instances_per_root
    )
    return build_hdg(records, schema, roots, graph.num_vertices, flat=False)


def schema_for_metapaths(metapaths: list[Metapath]) -> SchemaTree:
    """Schema tree whose leaves are the metapath types."""
    return SchemaTree(tuple(mp.name or f"mp{i}" for i, mp in enumerate(metapaths)))


def schema_for_rings(max_distance: int) -> SchemaTree:
    """Schema tree with one ``ring_i`` leaf per distance."""
    return SchemaTree(tuple(f"ring_{i}" for i in range(1, max_distance + 1)))


__all__ += ["schema_for_metapaths", "schema_for_rings", "build_metapath_hdg"]
