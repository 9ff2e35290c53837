"""Random walks and importance-based neighbor selection (PinSage).

PinSage defines ``N(v)`` as the top-k most-visited vertices over several
fixed-length random walks started at ``v`` (Section 2.2).  The walk kernel
here is vectorized over all start vertices at once: one numpy step per
hop, which is the analogue of the paper pushing walks into the parallel
graph engine instead of simulating them with GAS stages.
"""

from __future__ import annotations

import numpy as np

from ..obs.profile import record_op
from .graph import Graph

__all__ = ["random_walks", "top_k_visited", "select_top_k_per_owner"]


def random_walks(
    graph: Graph,
    starts: np.ndarray,
    num_walks: int,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform random walks over out-edges.

    Returns an ``(len(starts) * num_walks, length + 1)`` int array of
    vertex ids; a walk that reaches a sink vertex stays there (marked by
    repeating the sink), mirroring the usual padding convention.
    """
    if num_walks <= 0 or length < 0:
        raise ValueError("num_walks must be positive and length non-negative")
    starts = np.asarray(starts, dtype=np.int64)
    current = np.repeat(starts, num_walks)
    walks = np.empty((current.size, length + 1), dtype=np.int64)
    walks[:, 0] = current
    indptr, indices = graph.csr
    for step in range(1, length + 1):
        degrees = indptr[current + 1] - indptr[current]
        movable = degrees > 0
        # Sample a uniform slot within each movable vertex's edge range.
        offsets = (rng.random(current.size) * degrees.clip(min=1)).astype(np.int64)
        nxt = current.copy()
        nxt[movable] = indices[indptr[current[movable]] + offsets[movable]]
        current = nxt
        walks[:, step] = current
    # Each step of each walker reads its vertex's two offsets and the
    # chosen out-edge, and writes the vertex it moved to.
    steps = current.size * length
    record_op("select.walk", bytes_read=steps * (3 * indices.itemsize),
              bytes_written=walks.nbytes)
    return walks


def top_k_visited(
    graph: Graph,
    starts: np.ndarray,
    num_walks: int,
    length: int,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance-based neighborhoods for all ``starts`` at once.

    For each start vertex, runs ``num_walks`` walks of ``length`` hops and
    keeps the ``k`` most-visited distinct vertices (ties broken by vertex
    id for determinism; the start itself is excluded).

    Returns
    -------
    (roots, neighbors, weights):
        Flat parallel arrays — ``neighbors[i]`` is a selected neighbor of
        ``roots[i]`` with normalized visit frequency ``weights[i]``.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    starts = np.asarray(starts, dtype=np.int64)
    walks = random_walks(graph, starts, num_walks, length, rng)
    # Row i of `walks` belongs to start starts[i // num_walks].
    owner = np.repeat(np.arange(starts.size, dtype=np.int64), num_walks)
    owner_per_visit = np.repeat(owner, length)
    visited = walks[:, 1:].ravel()
    valid = visited != starts[owner_per_visit]
    pairs_owner = owner_per_visit[valid]
    pairs_visit = visited[valid]

    # Group (owner, visited) pairs and count within each owner.
    key = pairs_owner * (graph.num_vertices + 1) + pairs_visit
    uniq, counts = np.unique(key, return_counts=True)
    uniq_owner = uniq // (graph.num_vertices + 1)
    uniq_visit = uniq % (graph.num_vertices + 1)
    owners, nbrs, weights = select_top_k_per_owner(uniq_owner, uniq_visit, counts, k)
    # Counting the visits streams the (owner, vertex) keys; each kept
    # neighbour's weight is one add into its owner's total and one
    # divide.
    record_op("select.top_k", flops=2.0 * weights.size,
              bytes_read=key.nbytes,
              bytes_written=uniq.nbytes + counts.nbytes + weights.nbytes)
    return starts[owners], nbrs, weights


def select_top_k_per_owner(
    owners: np.ndarray,
    candidates: np.ndarray,
    counts: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-owner top-k of ``candidates`` by ``counts`` — fully vectorized.

    Ties break toward smaller candidate id for determinism.  Returns the
    kept ``(owners, candidates, weights)`` with weights normalized per
    owner over the kept counts.
    """
    if owners.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    # Sort by (owner asc, count desc, candidate asc) and rank within owner.
    order = np.lexsort((candidates, -counts, owners))
    owners_s = owners[order]
    change = np.flatnonzero(np.diff(owners_s, prepend=owners_s[0] - 1))
    group_start = np.zeros(owners_s.size, dtype=np.int64)
    group_start[change] = change
    group_start = np.maximum.accumulate(group_start)
    rank = np.arange(owners_s.size) - group_start
    keep = order[rank < k]
    keep.sort()  # preserve original (owner-major) ordering
    kept_owner = owners[keep]
    kept_counts = counts[keep].astype(np.float64)
    sums = np.bincount(kept_owner, weights=kept_counts)
    return kept_owner, candidates[keep], kept_counts / sums[kept_owner]
