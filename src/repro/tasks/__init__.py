"""``repro.tasks`` — the downstream tasks GNN embeddings feed (§2.1):
vertex classification lives in the engine (``evaluate``); this package
adds link prediction and vertex clustering."""

from .clustering import (
    cluster_vertices,
    kmeans,
    normalized_mutual_information,
    purity,
)
from .link_prediction import EdgeSplit, LinkPredictionTrainer, split_edges

__all__ = [
    "EdgeSplit", "split_edges", "LinkPredictionTrainer",
    "kmeans", "cluster_vertices", "normalized_mutual_information", "purity",
]
