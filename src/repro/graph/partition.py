"""Graph partitioners and partition-quality metrics.

FlexGraph partitions the vertex set into ``k`` disjoint sets before
distributed training (Section 5).  ADB (the application-driven balancer)
starts from a conventional partitioner — the paper uses Hash or PuLP — and
then rebalances by the learned cost model.  This module provides:

* :func:`hash_partition` — the classic modulo assignment;
* :func:`pulp_partition` — a PuLP-style balanced label-propagation
  partitioner (PuLP = "partitioning using label propagation", Slota et
  al., IPDPS'16): vertices iteratively adopt the most common label among
  their neighbors subject to a vertex-count balance constraint.  Like the
  real PuLP it optimizes edge cut over *static* metrics, so its output can
  be skewed w.r.t. GNN training cost — exactly the behaviour Figure 15a
  relies on;
* metrics: edge cut and balance factors.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "hash_partition",
    "pulp_partition",
    "spectral_partition",
    "edge_cut",
    "balance_factor",
]


def hash_partition(num_vertices: int, k: int) -> np.ndarray:
    """Assign vertex ``v`` to partition ``v mod k``."""
    if k <= 0:
        raise ValueError("k must be positive")
    return np.arange(num_vertices, dtype=np.int64) % k


def pulp_partition(
    graph: Graph,
    k: int,
    num_iters: int = 10,
    imbalance: float = 0.15,
    seed: int = 0,
) -> np.ndarray:
    """Balanced label propagation in the style of PuLP.

    Starts from a contiguous block assignment and sweeps vertices in
    random order; each vertex moves to the label most common among its
    (undirected) neighbors, unless that would push the target partition
    above ``(1 + imbalance) * n / k`` vertices.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    # Contiguous blocks: the typical PuLP seeding.
    labels = np.minimum(np.arange(n, dtype=np.int64) * k // max(n, 1), k - 1)
    sizes = np.bincount(labels, minlength=k)
    cap = int((1.0 + imbalance) * n / k) + 1
    for _ in range(num_iters):
        moved = 0
        for v in rng.permutation(n):
            nbrs = np.concatenate([graph.out_neighbors(v), graph.in_neighbors(v)])
            if nbrs.size == 0:
                continue
            counts = np.bincount(labels[nbrs], minlength=k)
            best = int(np.argmax(counts))
            cur = labels[v]
            if best != cur and counts[best] > counts[cur] and sizes[best] < cap:
                labels[v] = best
                sizes[cur] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break
    return labels


def spectral_partition(graph: Graph, k: int, seed: int = 0) -> np.ndarray:
    """Spectral partitioning: k-means over Laplacian eigenvectors.

    Builds the symmetric normalized Laplacian of the undirected view,
    takes its ``k`` smallest-eigenvalue eigenvectors (scipy ``eigsh``)
    and clusters the spectral embedding.  Classic quality partitioner —
    slower than PuLP/Hash but cuts fewer edges on community-structured
    graphs; another static baseline for the ADB comparison.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k == 1:
        return np.zeros(graph.num_vertices, dtype=np.int64)
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = graph.num_vertices
    src, dst = graph.edges()
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    adj = sp.csr_matrix(
        (np.ones(both_src.size), (both_src, both_dst)), shape=(n, n)
    )
    adj.data[:] = 1.0  # binarize multi-edges
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)
    d_half = sp.diags(inv_sqrt)
    laplacian = sp.identity(n) - d_half @ adj @ d_half
    num_vecs = min(k, n - 1)
    # Smallest eigenvectors via shift-invert-free eigsh on the PSD matrix.
    _vals, vecs = spla.eigsh(laplacian, k=num_vecs, which="SM", tol=1e-4)
    # Row-normalize the spectral embedding before clustering.
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    embedding = vecs / np.maximum(norms, 1e-12)
    from ..tasks.clustering import kmeans

    labels, _ = kmeans(embedding, k, rng=np.random.default_rng(seed))
    return labels.astype(np.int64)


def edge_cut(graph: Graph, labels: np.ndarray) -> int:
    """Number of edges whose endpoints lie in different partitions."""
    labels = np.asarray(labels)
    src, dst = graph.edges()
    return int(np.count_nonzero(labels[src] != labels[dst]))


def balance_factor(costs: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Max partition cost over mean partition cost (1.0 = perfectly even).

    ``costs`` is a per-vertex workload estimate; with all-ones it reduces
    to vertex-count balance.
    """
    costs = np.asarray(costs, dtype=np.float64)
    labels = np.asarray(labels)
    per_part = np.zeros(k, dtype=np.float64)
    np.add.at(per_part, labels, costs)
    mean = per_part.mean()
    if mean == 0:
        return 1.0
    return float(per_part.max() / mean)
