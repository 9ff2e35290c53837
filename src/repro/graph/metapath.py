"""Metapath definition and instance matching (MAGNN's neighbor definition).

A metapath is an ordered sequence of vertex types, e.g. ``Movie-Actor-
Movie``.  A metapath *instance* rooted at vertex ``v`` is a path in the
graph whose vertex types match the sequence, starting at ``v`` (so ``v``'s
type must equal the first type).  MAGNN's "neighbors" of ``v`` are all
instances of the model's metapaths rooted at ``v`` (Section 2.2,
Figure 2c).

Matching is a type-constrained DFS over out-edges, the graph-engine
operation the paper says consumes >95% of MAGNN's time when done with
tensor ops (Section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.profile import record_op
from .graph import Graph, group_by

__all__ = [
    "Metapath",
    "find_metapath_instances",
    "match_length3_metapath",
    "count_length3_instances",
]


@dataclass(frozen=True)
class Metapath:
    """An ordered sequence of vertex type ids with an optional name."""

    types: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.types) < 2:
            raise ValueError("a metapath needs at least two vertex types")
        object.__setattr__(self, "types", tuple(int(t) for t in self.types))

    @property
    def length(self) -> int:
        """Number of vertices in a matching instance."""
        return len(self.types)


def find_metapath_instances(
    graph: Graph,
    metapaths: list[Metapath],
    roots: np.ndarray | None = None,
    max_instances_per_root: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All instances of ``metapaths`` rooted at ``roots``, in DFS order.

    Returns the instance arrays ``(instance_roots, instance_types,
    leaf_flat, leaf_counts)`` that
    :func:`~repro.core.hdg.hdg_from_instance_arrays` takes: instance
    ``i`` is rooted at ``instance_roots[i]``, matched metapath
    ``instance_types[i]``, and its ``leaf_counts[i]`` path vertices
    (root first) are consecutive in ``leaf_flat``.

    Parameters
    ----------
    graph:
        A typed graph (``graph.vertex_types`` drives the matching).
    metapaths:
        Patterns to match; each instance's type is its pattern's index.
    roots:
        Root vertices to match from (default: every vertex).
    max_instances_per_root:
        Optional cap per (root, metapath) pair to bound HDG size on dense
        graphs, applied deterministically in DFS order.
    """
    if roots is None:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        roots = np.asarray(roots, dtype=np.int64)
    types = graph.vertex_types
    owners: list[int] = []
    mp_ids: list[int] = []
    leaves: list[int] = []
    counts: list[int] = []
    for mp_idx, mp in enumerate(metapaths):
        starts = roots[types[roots] == mp.types[0]]
        for root in starts:
            found = _match_from(graph, types, int(root), mp.types, max_instances_per_root)
            owners += [int(root)] * len(found)
            mp_ids += [mp_idx] * len(found)
            counts += [mp.length] * len(found)
            for path in found:
                leaves += path
    return (np.array(owners, dtype=np.int64), np.array(mp_ids, dtype=np.int64),
            np.array(leaves, dtype=np.int64), np.array(counts, dtype=np.int64))


def _match_from(
    graph: Graph,
    types: np.ndarray,
    root: int,
    pattern: tuple[int, ...],
    cap: int | None,
) -> list[list[int]]:
    """DFS enumeration of paths from ``root`` matching ``pattern``."""
    results: list[list[int]] = []
    path = [root]
    # Iterative DFS with explicit child iterators to keep paths cheap.
    frames: list[tuple[int, "object"]] = [(root, iter(graph.out_neighbors(root)))]
    while frames:
        if cap is not None and len(results) >= cap:
            break
        vertex, children = frames[-1]
        depth = len(frames) - 1
        advanced = False
        for child in children:
            child = int(child)
            if types[child] != pattern[depth + 1]:
                continue
            if child in path:  # simple paths only: no repeated vertices
                continue
            path.append(child)
            if depth + 1 == len(pattern) - 1:
                results.append(path.copy())
                path.pop()
                continue
            frames.append((child, iter(graph.out_neighbors(child))))
            advanced = True
            break
        if not advanced:
            frames.pop()
            path.pop()
    return results


def match_length3_metapath(
    graph: Graph,
    metapath: Metapath,
    max_instances_per_root: int | None = None,
    roots: np.ndarray | None = None,
) -> np.ndarray:
    """All instances of a 3-vertex metapath as an ``(count, 3)`` array.

    Fully vectorized edge-join: instances ``a -> b -> c`` arise from edge
    pairs grouped on the middle vertex ``b``, with the simple-path
    constraint ``a != c``.  This is the bulk matcher the FlexGraph graph
    engine would run in parallel; the DFS in
    :func:`find_metapath_instances` is the reference semantics.

    ``roots`` (default: every vertex) keeps only the first edges leaving
    those roots.  A root's instances come out in an order that depends
    only on its own and its middle vertices' out-edges, so its rows are
    the same, in the same order, whatever other roots are matched.
    """
    if metapath.length != 3:
        raise ValueError("match_length3_metapath handles 3-vertex metapaths only")
    t0, t1, t2 = metapath.types
    types = graph.vertex_types
    src, dst = graph.edges()
    first = (types[src] == t0) & (types[dst] == t1)
    if roots is not None:
        keep = np.zeros(graph.num_vertices, dtype=bool)
        keep[roots] = True
        first &= keep[src]
    a, b1 = src[first], dst[first]
    second = (types[src] == t1) & (types[dst] == t2)
    b2, c = src[second], dst[second]
    if a.size == 0 or b2.size == 0:
        return np.empty((0, 3), dtype=np.int64)

    # Group both edge lists by the middle vertex and emit cross products.
    n = graph.num_vertices
    offsets1, o1 = group_by(b1, n)
    a, b1 = a[o1], b1[o1]
    start2, o2 = group_by(b2, n)
    c = c[o2]
    cnt2 = np.diff(start2)
    pair_counts = np.diff(offsets1) * cnt2
    total = int(pair_counts.sum())
    if total == 0:
        return np.empty((0, 3), dtype=np.int64)

    # For each middle vertex b: repeat each of its first-edges cnt2[b]
    # times (block-wise), and tile its second-edges cnt1[b] times.
    rep_first = np.repeat(np.arange(b1.size, dtype=np.int64), cnt2[b1])
    out_a = a[rep_first]
    out_b = b1[rep_first]
    # Tile second-edge indices: position within each output block.
    block_owner = np.repeat(np.arange(n, dtype=np.int64), pair_counts)
    out_starts = np.concatenate([[0], np.cumsum(pair_counts)[:-1]])
    pos_in_block = np.arange(total, dtype=np.int64) - out_starts[block_owner]
    safe_cnt2 = np.maximum(cnt2, 1)
    second_idx = start2[block_owner] + pos_in_block % safe_cnt2[block_owner]
    out_c = c[second_idx]
    # rep_first orders output by (b, first-edge, second-edge); pos_in_block
    # ordering is by (b, output position) — both enumerate per-b cross
    # products, and pos_in_block % cnt2 cycles second edges while
    # rep_first advances first edges every cnt2 positions, so they align.
    keep = out_a != out_c
    result = np.stack([out_a[keep], out_b[keep], out_c[keep]], axis=1)
    if max_instances_per_root is not None:
        result = _cap_per_root(result, max_instances_per_root, n)
    # One scan of the edge list per hop of the metapath, and the
    # instances written.
    record_op("select.metapath", bytes_read=2 * (src.nbytes + dst.nbytes),
              bytes_written=result.nbytes)
    return result


def count_length3_instances(graph: Graph, metapath: Metapath) -> int:
    """Instance count of a 3-vertex metapath without materializing them.

    Used by baseline engines to project the size of the intermediate
    tensors a naive implementation would allocate (the OOM check).
    """
    if metapath.length != 3:
        raise ValueError("count_length3_instances handles 3-vertex metapaths only")
    t0, t1, t2 = metapath.types
    types = graph.vertex_types
    src, dst = graph.edges()
    first = (types[src] == t0) & (types[dst] == t1)
    second = (types[src] == t1) & (types[dst] == t2)
    n = graph.num_vertices
    cnt1 = np.bincount(dst[first], minlength=n)
    cnt2 = np.bincount(src[second], minlength=n)
    return int((cnt1 * cnt2).sum())


def _cap_per_root(instances: np.ndarray, cap: int,
                  num_vertices: int) -> np.ndarray:
    """Keep at most ``cap`` instances per root (column 0), deterministically."""
    offsets, order = group_by(instances[:, 0], num_vertices)
    inst = instances[order]
    # Rank within each root group.
    rank = np.arange(inst.shape[0]) - offsets[inst[:, 0]]
    return inst[rank < cap]
