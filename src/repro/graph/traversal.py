"""Graph traversal primitives: BFS levels and k-hop neighborhoods.

:func:`bfs_levels` yields the shortest-path rings of JK-Net's neighbor
definition (``core.selection``).  :func:`k_hop_neighbors` is the plain
per-vertex definition of the k-hop neighborhood a mini-batch baseline
must expand; DistDGL's vectorized block expansion is tested against it.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, range_positions

__all__ = ["bfs_levels", "k_hop_neighbors"]


def bfs_levels(graph: Graph, source: int, direction: str = "out") -> np.ndarray:
    """BFS levels from ``source``; unreachable vertices get ``-1``.

    ``direction`` selects out-edges, in-edges, or both (``"both"`` treats
    the graph as undirected).
    """
    if direction not in ("out", "in", "both"):
        raise ValueError(f"invalid direction {direction!r}")
    levels = np.full(graph.num_vertices, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nexts = _expand(graph, frontier, direction)
        nexts = nexts[levels[nexts] < 0]
        nexts = np.unique(nexts)
        levels[nexts] = depth
        frontier = nexts
    return levels


def _expand(graph: Graph, frontier: np.ndarray, direction: str) -> np.ndarray:
    adjacency = []
    if direction in ("out", "both"):
        adjacency.append(graph.csr)
    if direction in ("in", "both"):
        adjacency.append(graph.csc)
    return np.concatenate([
        indices[range_positions(indptr[frontier], indptr[frontier + 1] - indptr[frontier])]
        for indptr, indices in adjacency
    ])


def k_hop_neighbors(graph: Graph, source: int, k: int, direction: str = "both") -> np.ndarray:
    """All vertices within ``k`` hops of ``source`` (excluding it).

    This is the neighborhood the mini-batch baselines must expand for a
    k-layer GNN — the operation the paper blames for their blow-up on
    dense / power-law graphs (Section 7.1).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    levels = bfs_levels(graph, source, direction)
    return np.flatnonzero((levels > 0) & (levels <= k))
