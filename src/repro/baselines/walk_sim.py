"""Random-walk *simulation* via graph propagation — the slow path.

DGL and PyTorch have no graph engine, so PinSage implementations on them
"simulate random walks with several graph propagation stages" (§2.3):
every hop of every trace runs a full O(E) propagation over the graph,
materializing per-edge tensors along the way.  The paper measures >95% of
their PinSage epoch inside this simulation.

Contrast with :func:`repro.graph.random_walk.random_walks`, FlexGraph's
graph-engine kernel, which advances all walkers in O(n) per hop.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph
from .common import MemoryMeter

__all__ = ["propagation_random_walks", "top_k_from_visits"]


def propagation_random_walks(
    graph: Graph,
    num_traces: int,
    n_hops: int,
    rng: np.random.Generator,
    memory: MemoryMeter,
    edge_temporaries: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate walks from every vertex using per-hop edge propagation.

    Each hop materializes per-edge random keys and reduces them per source
    vertex to pick one outgoing edge for *every* vertex — O(E) work and an
    O(E) temporary per hop (``edge_temporaries`` scales the accounting for
    engines that stage the propagation through more intermediate edge
    tensors, e.g. plain PyTorch's Scatter + ApplyEdge).

    Returns
    -------
    (roots, visited):
        Flat parallel arrays with one entry per (walker, hop) visit.
    """
    n = graph.num_vertices
    src, dst = graph.edges()
    num_edges = src.size
    roots_out: list[np.ndarray] = []
    visits_out: list[np.ndarray] = []
    all_roots = np.arange(n, dtype=np.int64)
    for _trace in range(num_traces):
        current = all_roots.copy()
        for _hop in range(n_hops):
            # Materialize per-edge random keys (the propagation message).
            with memory.hold((edge_temporaries, num_edges), np.float64,
                             "per-edge walk messages"):
                keys = rng.random(num_edges)
                best = np.full(n, -1.0)
                np.maximum.at(best, src, keys)
                chosen = keys == best[src]
                next_of = np.arange(n, dtype=np.int64)  # sinks stay put
                next_of[src[chosen]] = dst[chosen]
            current = next_of[current]
            roots_out.append(all_roots)
            visits_out.append(current.copy())
    return np.concatenate(roots_out), np.concatenate(visits_out)


def top_k_from_visits(
    roots: np.ndarray,
    visited: np.ndarray,
    num_vertices: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-root top-k most-visited vertices with normalized frequencies.

    Same post-processing as the graph-engine path, so the two walk
    implementations produce statistically equivalent neighborhoods.
    """
    valid = roots != visited
    roots, visited = roots[valid], visited[valid]
    if roots.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.float64)
    key = roots * (num_vertices + 1) + visited
    uniq, counts = np.unique(key, return_counts=True)
    uniq_root = uniq // (num_vertices + 1)
    uniq_visit = uniq % (num_vertices + 1)
    from ..graph.random_walk import select_top_k_per_owner

    return select_top_k_per_owner(uniq_root, uniq_visit, counts, k)
