"""Tests for graph characterization metrics."""

import numpy as np
import pytest

from repro.graph import Graph, community_graph, graph_summary, power_law_graph
from repro.graph.metrics import (
    clustering_coefficient,
    degree_skew,
    label_homophily,
)


class TestDegreeMetrics:
    def test_skew_regular_graph(self):
        n = 10
        g = Graph.from_edges(n, [[i, (i + 1) % n] for i in range(n)])
        assert degree_skew(g) == pytest.approx(1.0)

    def test_skew_power_law_large(self):
        pl = power_law_graph(1500, 10, seed=0)
        er = community_graph(1500, 1, 10, intra_prob=0.0, seed=0)
        assert degree_skew(pl) > 2 * degree_skew(er)


class TestClustering:
    def test_triangle(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2], [2, 0]], make_undirected=True)
        assert clustering_coefficient(g, sample=None) == pytest.approx(1.0)

    def test_star_has_zero(self):
        g = Graph.from_edges(5, [[0, i] for i in range(1, 5)], make_undirected=True)
        assert clustering_coefficient(g, sample=None) == pytest.approx(0.0)

    def test_sampled_close_to_exact(self):
        g = community_graph(300, 3, 10, seed=1)
        exact = clustering_coefficient(g, sample=None)
        sampled = clustering_coefficient(g, sample=150, seed=0)
        assert abs(exact - sampled) < 0.15


class TestHomophily:
    def test_perfectly_homophilous(self):
        g = Graph.from_edges(4, [[0, 1], [2, 3]], make_undirected=True)
        labels = np.array([0, 0, 1, 1])
        assert label_homophily(g, labels) == 1.0

    def test_heterophilous(self):
        g = Graph.from_edges(2, [[0, 1]])
        assert label_homophily(g, np.array([0, 1])) == 0.0

    def test_shape_mismatch(self):
        g = Graph.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            label_homophily(g, np.zeros(5))

    def test_reddit_dataset_is_homophilous(self):
        from repro.datasets import load_dataset

        ds = load_dataset("reddit", scale="tiny")
        assert label_homophily(ds.graph, ds.labels) > 0.5


class TestSummary:
    def test_keys(self):
        g = community_graph(80, 2, 6, seed=0)
        summary = graph_summary(g, labels=g.communities)
        assert summary["num_vertices"] == 80
        assert "degree_skew" in summary
        assert "label_homophily" in summary

    def test_no_labels(self):
        g = Graph.from_edges(3, [[0, 1]])
        assert "label_homophily" not in graph_summary(g)
