"""Link prediction on learned vertex embeddings (§2.1's second
downstream task).

Standard protocol: hold out a fraction of edges, train a GNN encoder on
the remaining graph with a dot-product edge decoder against negative
samples, and evaluate AUC / hits@k on the held-out edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import FlexGraphEngine
from ..core.nau import NAUModel
from ..core.step import edge_scores, link_loss, train_step
from ..graph.graph import Graph
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor, no_grad

__all__ = ["EdgeSplit", "split_edges", "sample_negative_edges",
           "LinkPredictionTrainer", "auc_score", "hits_at_k"]


@dataclass
class EdgeSplit:
    """Train/test edge split for link prediction."""

    train_graph: Graph
    train_edges: np.ndarray   # (m_train, 2)
    test_edges: np.ndarray    # (m_test, 2)


def split_edges(graph: Graph, test_fraction: float = 0.1,
                rng: np.random.Generator | None = None) -> EdgeSplit:
    """Hold out undirected edge pairs for evaluation.

    Edges are deduplicated as unordered pairs first so a held-out edge
    never leaks through its reverse; the training graph keeps both
    directions of the surviving pairs.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = rng or np.random.default_rng(0)
    src, dst = graph.edges()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    if pairs.shape[0] < 2:
        raise ValueError("graph has too few distinct edges to split")
    order = rng.permutation(pairs.shape[0])
    n_test = max(1, int(pairs.shape[0] * test_fraction))
    test_pairs = pairs[order[:n_test]]
    train_pairs = pairs[order[n_test:]]
    both = np.concatenate([train_pairs, train_pairs[:, ::-1]], axis=0)
    train_graph = Graph(
        graph.num_vertices, both[:, 0], both[:, 1],
        vertex_types=graph.vertex_types, type_names=graph.type_names,
    )
    return EdgeSplit(train_graph, train_pairs, test_pairs)


def sample_negative_edges(graph: Graph, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Uniform non-edges (rejection-sampled), as a ``(count, 2)`` array."""
    if count <= 0:
        raise ValueError("count must be positive")
    out = np.empty((0, 2), dtype=np.int64)
    n = graph.num_vertices
    existing = set(zip(*graph.edges()))
    attempts = 0
    while out.shape[0] < count and attempts < 50:
        cand = rng.integers(0, n, size=(count * 2, 2))
        cand = cand[cand[:, 0] != cand[:, 1]]
        mask = np.array(
            [(int(a), int(b)) not in existing for a, b in cand], dtype=bool
        )
        out = np.concatenate([out, cand[mask]], axis=0)
        attempts += 1
    return out[:count]


def auc_score(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum identity."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both positive and negative scores")
    all_scores = np.concatenate([pos, neg])
    order = np.argsort(all_scores, kind="stable")
    ranks = np.empty(all_scores.size, dtype=np.float64)
    # Average ranks over ties.
    sorted_scores = all_scores[order]
    i = 0
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = ranks[: pos.size].sum()
    return float((rank_sum - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size))


def hits_at_k(pos_scores: np.ndarray, neg_scores: np.ndarray, k: int) -> float:
    """Fraction of positives scoring above the k-th best negative."""
    if k <= 0:
        raise ValueError("k must be positive")
    neg = np.sort(np.asarray(neg_scores))[::-1]
    threshold = neg[min(k, neg.size) - 1]
    return float((np.asarray(pos_scores) > threshold).mean())


class LinkPredictionTrainer:
    """Train a GNN encoder with a dot-product edge decoder.

    The encoder is any NAU model whose final layer outputs embeddings;
    positives are the training edges, negatives are re-sampled per epoch.
    """

    def __init__(self, model: NAUModel, split: EdgeSplit, seed: int = 0):
        self.model = model
        self.split = split
        self.engine = FlexGraphEngine(model, split.train_graph, seed=seed)
        self._rng = np.random.default_rng(seed)

    def train_epoch(self, feats: Tensor, optimizer: Optimizer,
                    epoch: int = 0) -> float:
        """One epoch of BCE on positive vs sampled negative edges."""
        self.model.train()
        embeddings = self.engine.forward(feats, epoch)
        pos = self.split.train_edges
        neg = sample_negative_edges(self.split.train_graph, pos.shape[0], self._rng)
        loss = link_loss(embeddings, pos, neg)
        train_step(loss, optimizer)
        return loss.item()

    def evaluate(self, feats: Tensor, num_negatives: int | None = None) -> dict:
        """AUC and hits@10 on the held-out edges."""
        self.model.eval()
        with no_grad():
            embeddings = self.engine.forward(feats)
        self.model.train()
        pos = self.split.test_edges
        neg = sample_negative_edges(
            self.split.train_graph, num_negatives or pos.shape[0], self._rng
        )
        pos_scores = edge_scores(embeddings, pos).numpy()
        neg_scores = edge_scores(embeddings, neg).numpy()
        return {
            "auc": auc_score(pos_scores, neg_scores),
            "hits@10": hits_at_k(pos_scores, neg_scores, 10),
        }
