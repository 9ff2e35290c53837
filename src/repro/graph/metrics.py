"""Graph characterization metrics — the numbers DESIGN.md's dataset
substitutions are justified with (density, degree skew, clustering,
homophily)."""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "degree_skew",
    "clustering_coefficient",
    "label_homophily",
    "graph_summary",
]


def degree_skew(graph: Graph) -> float:
    """``E[d^2] / E[d]^2`` — 1.0 for regular graphs, large for power laws.

    This is the size-biased degree ratio that drives the mini-batch
    expansion blow-up and the ADB workload skew.
    """
    degrees = graph.out_degree().astype(np.float64)
    mean = degrees.mean()
    if mean == 0:
        return 1.0
    return float((degrees**2).mean() / mean**2)


def clustering_coefficient(graph: Graph, sample: int | None = 500,
                           seed: int = 0) -> float:
    """Average local clustering coefficient (undirected view).

    Exact when ``sample`` is None, otherwise estimated over a uniform
    vertex sample — triangle counting is the one O(n * d^2) metric here.
    """
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    vertices = (
        np.arange(n) if sample is None or sample >= n
        else rng.choice(n, size=sample, replace=False)
    )
    # Undirected neighbor sets.
    coefficients = []
    neighbor_sets: dict[int, frozenset] = {}

    def neighbors_of(v: int) -> frozenset:
        cached = neighbor_sets.get(v)
        if cached is None:
            merged = np.concatenate([graph.out_neighbors(v), graph.in_neighbors(v)])
            cached = frozenset(int(u) for u in merged if u != v)
            neighbor_sets[v] = cached
        return cached

    for v in vertices:
        nbrs = list(neighbors_of(int(v)))
        k = len(nbrs)
        if k < 2:
            coefficients.append(0.0)
            continue
        links = 0
        nbr_set = neighbor_sets[int(v)]
        for u in nbrs:
            links += len(neighbors_of(u) & nbr_set)
        coefficients.append(links / (k * (k - 1)))
    return float(np.mean(coefficients)) if coefficients else 0.0


def label_homophily(graph: Graph, labels: np.ndarray) -> float:
    """Fraction of edges whose endpoints share a label (edge homophily)."""
    labels = np.asarray(labels)
    if labels.shape != (graph.num_vertices,):
        raise ValueError("labels must cover every vertex")
    src, dst = graph.edges()
    if src.size == 0:
        return 0.0
    return float((labels[src] == labels[dst]).mean())


def graph_summary(graph: Graph, labels: np.ndarray | None = None) -> dict:
    """One-call characterization used for dataset documentation."""
    degrees = graph.out_degree()
    summary = {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "num_types": graph.num_types,
        "mean_degree": float(degrees.mean()),
        "max_degree": int(degrees.max()) if degrees.size else 0,
        "degree_skew": degree_skew(graph),
        "clustering_coefficient": clustering_coefficient(graph),
    }
    if labels is not None:
        summary["label_homophily"] = label_homophily(graph, labels)
    return summary
