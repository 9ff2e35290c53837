"""NeighborSelection executors: the UDFs of Figure 5, run in bulk.

Each function here plays the role of one of the paper's ``nbr_udf``
examples — it consults the input graph through the graph engine and
emits its neighbor instances ``(root, nei, nei_type)`` as the instance
arrays ``(instance_roots, instance_types, leaf_flat, leaf_counts)``,
which :func:`~repro.core.hdg.hdg_from_instance_arrays` packs into the
HDG layout.

* :func:`build_metapath_hdg` — MAGNN's metapath-instance matching,
  straight to the HDG;
* :func:`select_anchor_set_neighbors` — P-GNN's anchor sets;
* :func:`select_distance_ring_neighbors` — JK-Net's shortest-path rings.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..graph.graph import Graph, range_positions
from ..graph.metapath import Metapath, find_metapath_instances
from ..graph.traversal import bfs_levels
from .schema import SchemaTree

__all__ = [
    "select_anchor_set_neighbors",
    "select_distance_ring_neighbors",
]

#: what a hierarchical NeighborSelection emits: ``(instance_roots,
#: instance_types, leaf_flat, leaf_counts)``
InstanceArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def select_anchor_set_neighbors(
    graph: Graph,
    num_anchor_sets: int,
    anchor_set_size: int,
    roots: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> InstanceArrays:
    """P-GNN anchor sets: ``num_anchor_sets`` random vertex sets shared by
    all roots; each root's i-th neighbor is the i-th anchor set.

    The schema tree has a single ``anchor_set`` leaf and each root has
    ``num_anchor_sets`` instances under it (the paper's three-level HDG
    for P-GNN, Section 3.2).  Returns the instance arrays, root by root.
    """
    if roots is None:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    rng = rng or np.random.default_rng(0)
    if num_anchor_sets <= 0 or anchor_set_size <= 0:
        raise ValueError("anchor-set count and size must be positive")
    size = min(anchor_set_size, graph.num_vertices)
    sets = np.array([rng.choice(graph.num_vertices, size=size, replace=False)
                     for _ in range(num_anchor_sets)], dtype=np.int64)
    num = roots.size * num_anchor_sets
    return (np.repeat(roots, num_anchor_sets), np.zeros(num, dtype=np.int64),
            np.tile(sets.reshape(-1), roots.size),
            np.full(num, size, dtype=np.int64))


def select_distance_ring_neighbors(
    graph: Graph,
    max_distance: int,
    roots: np.ndarray | None = None,
) -> InstanceArrays:
    """JK-Net rings: the i-th neighbor of ``v`` is the set of vertices at
    shortest-path distance exactly ``i`` (1 <= i <= max_distance).

    The schema tree has one leaf per distance (``ring_1..ring_k``) and
    exactly one instance per (root, ring) when the ring is non-empty.
    Returns the instance arrays, root by root and ring by ring.
    """
    if max_distance <= 0:
        raise ValueError("max_distance must be positive")
    if roots is None:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
    owners, types, rings = [], [], []
    for v in np.asarray(roots, dtype=np.int64):
        levels = bfs_levels(graph, int(v), "both")
        for d in range(1, max_distance + 1):
            ring = np.flatnonzero(levels == d)
            if ring.size:
                owners.append(v)
                types.append(d - 1)
                rings.append(ring)
    counts = np.array([r.size for r in rings], dtype=np.int64)
    leaf_flat = np.concatenate(rings) if rings else np.empty(0, dtype=np.int64)
    return (np.array(owners, dtype=np.int64), np.array(types, dtype=np.int64),
            leaf_flat, counts)


def build_metapath_hdg(
    graph: Graph,
    metapaths: list[Metapath],
    max_instances_per_root: int | None = None,
    roots: np.ndarray | None = None,
):
    """Bulk NeighborSelection for MAGNN: match instances and compact them
    straight into a depth-3 HDG over ``roots`` (default: every vertex).

    Uses the vectorized length-3 edge-join matcher when every metapath has
    3 vertices (the evaluation setup), falling back to the DFS matcher
    otherwise.  Both produce identical HDGs, and a root's slots are
    bitwise the same whichever ``roots`` it was selected with.
    """
    from ..graph.metapath import match_length3_metapath
    from .hdg import hdg_from_instance_arrays

    # The matchers take ``roots=None`` as every vertex, without a filter.
    hdg_roots = (np.arange(graph.num_vertices, dtype=np.int64) if roots is None
                 else np.asarray(roots, dtype=np.int64))
    schema = schema_for_metapaths(metapaths)
    if all(mp.length == 3 for mp in metapaths):
        blocks = []
        type_blocks = []
        for mp_idx, mp in enumerate(metapaths):
            inst = match_length3_metapath(graph, mp, max_instances_per_root, roots)
            if inst.size:
                blocks.append(inst)
                type_blocks.append(np.full(inst.shape[0], mp_idx, dtype=np.int64))
        if not blocks:
            empty = np.empty(0, dtype=np.int64)
            return hdg_from_instance_arrays(
                schema, hdg_roots, empty, empty, empty, empty, graph.num_vertices
            )
        instances = np.concatenate(blocks, axis=0)
        types = np.concatenate(type_blocks)
        return hdg_from_instance_arrays(
            schema,
            hdg_roots,
            instances[:, 0],
            types,
            instances.reshape(-1),
            np.full(instances.shape[0], 3, dtype=np.int64),
            graph.num_vertices,
        )
    return hdg_from_instance_arrays(
        schema, hdg_roots,
        *find_metapath_instances(graph, metapaths, roots, max_instances_per_root),
        graph.num_vertices,
    )


def reselect_metapath_hdg(
    hdg,
    graph: Graph,
    changed: np.ndarray,
    metapaths: list[Metapath],
    max_instances_per_root: int | None = None,
):
    """Repair a 3-vertex metapath HDG after an edge edit: ``(hdg, touched)``.

    ``graph`` is the edited graph and ``changed`` the ``(m, 2)`` edges
    added or removed.  Per metapath ``(t0, t1, t2)``, a root's instances
    can change only if it is the source ``u`` of a changed ``(t0, t1)``
    edge, or a ``t0`` in-neighbour (in the edited graph) of the source
    ``u`` of a changed ``(t1, t2)`` edge — an old instance ``a -> u ->
    v`` whose ``a -> u`` edge is gone lost it in this edit, so ``a`` is
    caught by the first rule.  Those roots are selected again and
    spliced in (:meth:`~repro.core.hdg.HDG.splice`); every other root's
    slots are copied.  The result is array-for-array
    ``build_metapath_hdg(graph, metapaths, max_instances_per_root)``.
    ``touched`` lists the roots whose slots actually changed.
    """
    from .hdg import _root_orders

    changed = np.asarray(changed, dtype=np.int64).reshape(-1, 2)
    u, v = changed[:, 0], changed[:, 1]
    types = graph.vertex_types
    indptr, indices = graph.csc
    found = []
    for mp in metapaths:
        if mp.length != 3:
            raise ValueError("reselect_metapath_hdg handles 3-vertex metapaths only")
        t0, t1, t2 = mp.types
        found.append(u[(types[u] == t0) & (types[v] == t1)])
        mid = u[(types[u] == t1) & (types[v] == t2)]
        starts = indices[range_positions(indptr[mid], indptr[mid + 1] - indptr[mid])]
        found.append(starts[types[starts] == t0])
    roots = np.unique(np.concatenate(found))
    if roots.size == 0:
        return hdg, roots
    sub = build_metapath_hdg(graph, metapaths, max_instances_per_root, roots)
    obs.record_op("neighbor_selection.reselect",
                  bytes_written=sub.leaf_vertices.nbytes)
    old = hdg.restrict_to_roots(_root_orders(hdg, roots))
    return hdg.splice(sub), roots[_differing_roots(old, sub)]


def _differing_roots(a, b) -> np.ndarray:
    """Mask over the shared roots of two depth-3 HDGs: whose slots differ
    in instance counts, leaf counts or leaf vertices."""
    differ = np.any(a.instance_counts_per_type() != b.instance_counts_per_type(), axis=1)
    # Roots with equal slot counts own equally many instances, so with
    # the differing roots masked out the two instance arrays line up;
    # the same then holds for the leaves of roots with equal leaf counts.
    inst_a, inst_b = a.instance_roots(), b.instance_roots()
    keep_a, keep_b = ~differ[inst_a], ~differ[inst_b]
    bad = a.leaf_counts()[keep_a] != b.leaf_counts()[keep_b]
    differ[inst_a[keep_a][bad]] = True
    leaf_a, leaf_b = a.root_of_leaf_edges(), b.root_of_leaf_edges()
    keep_a, keep_b = ~differ[leaf_a], ~differ[leaf_b]
    bad = a.leaf_vertices[keep_a] != b.leaf_vertices[keep_b]
    differ[leaf_a[keep_a][bad]] = True
    return differ


def schema_for_metapaths(metapaths: list[Metapath]) -> SchemaTree:
    """Schema tree whose leaves are the metapath types."""
    return SchemaTree(tuple(mp.name or f"mp{i}" for i, mp in enumerate(metapaths)))


def schema_for_rings(max_distance: int) -> SchemaTree:
    """Schema tree with one ``ring_i`` leaf per distance."""
    return SchemaTree(tuple(f"ring_{i}" for i in range(1, max_distance + 1)))


__all__ += [
    "schema_for_metapaths", "schema_for_rings", "build_metapath_hdg",
    "reselect_metapath_hdg",
]
