"""Tests for PageRank / personalized PageRank and the HDG validator."""

import numpy as np
import pytest

from repro.core import (
    HDGInvariantError,
    NeighborRecord,
    SchemaTree,
    build_hdg,
    validate_hdg,
)
from repro.core.hdg import hdg_from_graph
from repro.graph import Graph, community_graph, top_k_ppr_neighbors
from repro.graph.pagerank import pagerank, personalized_pagerank


class TestPageRank:
    def test_sums_to_one(self):
        g = community_graph(150, 3, 8, seed=0)
        pr = pagerank(g)
        assert pr.shape == (150,)
        np.testing.assert_allclose(pr.sum(), 1.0, rtol=1e-9)
        assert (pr > 0).all()

    def test_star_graph_center_ranks_highest(self):
        edges = [[i, 0] for i in range(1, 10)]
        g = Graph.from_edges(10, edges)
        pr = pagerank(g)
        assert pr.argmax() == 0

    def test_dangling_vertices_conserve_mass(self):
        g = Graph.from_edges(3, [[0, 1]])  # 1 and 2 are sinks
        pr = pagerank(g)
        np.testing.assert_allclose(pr.sum(), 1.0, rtol=1e-9)

    def test_invalid_damping(self):
        g = Graph.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            pagerank(g, damping=1.5)

    def test_symmetric_cycle_is_uniform(self):
        n = 6
        g = Graph.from_edges(n, [[i, (i + 1) % n] for i in range(n)])
        pr = pagerank(g)
        np.testing.assert_allclose(pr, np.full(n, 1 / n), rtol=1e-6)


class TestPersonalizedPageRank:
    def test_rows_sum_to_one(self):
        g = community_graph(80, 2, 6, seed=1)
        ppr = personalized_pagerank(g, np.array([0, 5, 10]))
        np.testing.assert_allclose(ppr.sum(axis=1), np.ones(3), rtol=1e-6)

    def test_mass_concentrates_near_source(self):
        # Two disconnected cliques: PPR from clique A stays in clique A.
        edges = [[i, j] for i in range(4) for j in range(4) if i != j]
        edges += [[i, j] for i in range(4, 8) for j in range(4, 8) if i != j]
        g = Graph.from_edges(8, edges)
        ppr = personalized_pagerank(g, np.array([0]))
        assert ppr[0, :4].sum() > 0.99

    def test_top_k_neighbors_shape(self):
        g = community_graph(100, 2, 8, seed=2)
        owners, nbrs, weights = top_k_ppr_neighbors(g, np.arange(20), 5)
        assert (np.bincount(owners, minlength=100) <= 5).all()
        assert np.all(owners != nbrs)
        for v in np.unique(owners):
            np.testing.assert_allclose(weights[owners == v].sum(), 1.0, rtol=1e-9)

    def test_top_k_invalid_k(self):
        g = Graph.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            top_k_ppr_neighbors(g, np.array([0]), 0)

    def test_ppr_matches_walk_statistics(self):
        """PPR is the stationary walk-visit distribution: its top
        neighbors should strongly overlap the walk-based top-k."""
        from repro.graph import top_k_visited

        g = community_graph(60, 2, 10, seed=3)
        po, pn, _ = top_k_ppr_neighbors(g, np.array([0]), 10)
        wo, wn, _ = top_k_visited(g, np.array([0]), 200, 3,
                                  10, np.random.default_rng(0))
        overlap = len(set(pn.tolist()) & set(wn.tolist()))
        assert overlap >= 3


class TestValidateHDG:
    def test_valid_flat(self):
        g = community_graph(50, 2, 6, seed=0)
        validate_hdg(hdg_from_graph(g))  # no raise

    def test_valid_hierarchical(self):
        records = [NeighborRecord(0, (1, 2), 0), NeighborRecord(1, (0,), 1)]
        hdg = build_hdg(records, SchemaTree(("a", "b")), np.arange(3), 3, flat=False)
        validate_hdg(hdg)

    def test_detects_corrupted_offsets(self):
        g = community_graph(30, 2, 4, seed=0)
        hdg = hdg_from_graph(g)
        hdg.leaf_offsets = hdg.leaf_offsets.copy()
        hdg.leaf_offsets[-1] += 1  # no longer covers leaf_vertices
        with pytest.raises(HDGInvariantError):
            validate_hdg(hdg)

    def test_detects_out_of_range_leaf(self):
        g = community_graph(30, 2, 4, seed=0)
        hdg = hdg_from_graph(g)
        hdg.leaf_vertices = hdg.leaf_vertices.copy()
        hdg.leaf_vertices[0] = 999
        with pytest.raises(HDGInvariantError):
            validate_hdg(hdg)

    def test_detects_negative_weight(self):
        g = community_graph(30, 2, 4, seed=0)
        hdg = hdg_from_graph(g)
        hdg.leaf_weights = -np.ones(hdg.leaf_vertices.size)
        with pytest.raises(HDGInvariantError):
            validate_hdg(hdg)

    def test_detects_duplicate_roots(self):
        hdg = hdg_from_graph(community_graph(10, 2, 3, seed=0))
        hdg.roots = np.zeros_like(hdg.roots)
        with pytest.raises(HDGInvariantError):
            validate_hdg(hdg)
