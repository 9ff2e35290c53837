"""Tests for the downstream-task layer: link prediction and clustering."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph import Graph
from repro.models import gcn
from repro.tasks import (
    LinkPredictionTrainer,
    cluster_vertices,
    kmeans,
    normalized_mutual_information,
    purity,
    split_edges,
)
from repro.tasks.link_prediction import (
    auc_score,
    hits_at_k,
    sample_negative_edges,
)
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestEdgeSplit:
    def test_split_sizes(self, ds):
        split = split_edges(ds.graph, 0.2, np.random.default_rng(0))
        total = split.train_edges.shape[0] + split.test_edges.shape[0]
        assert split.test_edges.shape[0] == pytest.approx(total * 0.2, abs=2)

    def test_no_leakage(self, ds):
        """Held-out pairs must be absent from the training graph in
        *either* direction."""
        split = split_edges(ds.graph, 0.1, np.random.default_rng(1))
        train_pairs = set(zip(*split.train_graph.edges()))
        for a, b in split.test_edges[:50]:
            assert (int(a), int(b)) not in train_pairs
            assert (int(b), int(a)) not in train_pairs

    def test_train_graph_undirected(self, ds):
        split = split_edges(ds.graph, 0.1)
        src, dst = split.train_graph.edges()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in pairs for a, b in list(pairs)[:50])

    def test_invalid_fraction(self, ds):
        with pytest.raises(ValueError):
            split_edges(ds.graph, 0.0)

    def test_too_few_edges(self):
        g = Graph.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            split_edges(g, 0.5)


class TestNegativeSampling:
    def test_no_real_edges_sampled(self, ds):
        split = split_edges(ds.graph, 0.1)
        neg = sample_negative_edges(split.train_graph, 100, np.random.default_rng(0))
        existing = set(zip(*split.train_graph.edges()))
        assert all((int(a), int(b)) not in existing for a, b in neg)
        assert np.all(neg[:, 0] != neg[:, 1])

    def test_count_respected(self, ds):
        neg = sample_negative_edges(ds.graph, 50, np.random.default_rng(1))
        assert neg.shape == (50, 2)

    def test_invalid_count(self, ds):
        with pytest.raises(ValueError):
            sample_negative_edges(ds.graph, 0, np.random.default_rng(0))


class TestMetrics:
    def test_auc_perfect(self):
        assert auc_score(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_auc_random(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(2000)
        b = rng.standard_normal(2000)
        assert abs(auc_score(a, b) - 0.5) < 0.05

    def test_auc_handles_ties(self):
        assert auc_score(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_auc_empty_raises(self):
        with pytest.raises(ValueError):
            auc_score(np.array([]), np.array([1.0]))

    def test_hits_at_k(self):
        pos = np.array([5.0, 0.5])
        neg = np.array([1.0, 2.0, 3.0])
        assert hits_at_k(pos, neg, 1) == pytest.approx(0.5)  # only 5.0 > 3.0
        assert hits_at_k(pos, neg, 3) == pytest.approx(0.5)  # 0.5 < 1.0

    def test_hits_invalid_k(self):
        with pytest.raises(ValueError):
            hits_at_k(np.ones(2), np.ones(2), 0)


class TestLinkPrediction:
    def test_training_improves_auc(self, ds):
        split = split_edges(ds.graph, 0.1, np.random.default_rng(2))
        model = gcn(ds.feat_dim, 16, 16, seed=0)
        trainer = LinkPredictionTrainer(model, split, seed=0)
        feats = Tensor(ds.features)
        before = trainer.evaluate(feats)["auc"]
        opt = Adam(model.parameters(), 0.01)
        losses = [trainer.train_epoch(feats, opt, e) for e in range(8)]
        after = trainer.evaluate(feats)["auc"]
        assert losses[-1] < losses[0]
        assert after > max(before, 0.6)

    def test_metrics_keys(self, ds):
        split = split_edges(ds.graph, 0.1)
        trainer = LinkPredictionTrainer(gcn(ds.feat_dim, 8, 8), split)
        metrics = trainer.evaluate(Tensor(ds.features))
        assert set(metrics) == {"auc", "hits@10"}
        assert 0.0 <= metrics["auc"] <= 1.0


class TestKMeans:
    def test_separable_blobs(self):
        rng = np.random.default_rng(0)
        blobs = np.concatenate([
            rng.standard_normal((50, 2)) + [10, 0],
            rng.standard_normal((50, 2)) + [-10, 0],
            rng.standard_normal((50, 2)) + [0, 10],
        ])
        truth = np.repeat(np.arange(3), 50)
        assign, centers = kmeans(blobs, 3, rng=rng)
        assert centers.shape == (3, 2)
        assert normalized_mutual_information(assign, truth) > 0.95

    def test_k_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 5)
        with pytest.raises(ValueError):
            kmeans(np.zeros((3,)), 1)

    def test_k_equals_n(self):
        points = np.arange(8.0).reshape(4, 2)
        assign, _ = kmeans(points, 4, rng=np.random.default_rng(0))
        assert np.unique(assign).size == 4

    def test_cluster_vertices_accepts_tensor(self, ds):
        emb = Tensor(np.random.default_rng(0).standard_normal((ds.graph.num_vertices, 4)))
        assign = cluster_vertices(emb, 3)
        assert assign.shape == (ds.graph.num_vertices,)


class TestClusterMetrics:
    def test_nmi_identity(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_nmi_permutation_invariant(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_nmi_independent_labelings_low(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert normalized_mutual_information(a, b) < 0.05

    def test_nmi_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(np.zeros(2, int), np.zeros(3, int))

    def test_purity_perfect(self):
        clusters = np.array([0, 0, 1, 1])
        labels = np.array([3, 3, 7, 7])
        assert purity(clusters, labels) == 1.0

    def test_purity_mixed(self):
        clusters = np.zeros(4, dtype=int)
        labels = np.array([0, 0, 1, 2])
        assert purity(clusters, labels) == pytest.approx(0.5)

    def test_gnn_embeddings_cluster_by_community(self, ds):
        """End-to-end §2.1 story: train, embed, cluster, compare to
        community labels."""
        model = gcn(ds.feat_dim, 16, ds.num_classes)
        from repro.core import FlexGraphEngine

        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        engine.fit(feats, ds.labels, opt, 10, mask=ds.train_mask)
        emb = engine.forward(feats)
        clusters = cluster_vertices(emb, ds.num_classes, seed=0)
        assert purity(clusters, ds.labels) > 0.7
