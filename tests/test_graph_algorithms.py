"""Unit tests for traversal, random walks, metapaths, partitioners and
generators."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    Metapath,
    balance_factor,
    bfs_levels,
    community_graph,
    edge_cut,
    find_metapath_instances,
    hash_partition,
    heterogeneous_graph,
    k_hop_neighbors,
    power_law_graph,
    pulp_partition,
    top_k_visited,
)
from repro.graph.random_walk import random_walks
from repro.graph.metapath import count_length3_instances, match_length3_metapath


@pytest.fixture
def path_graph():
    # 0 - 1 - 2 - 3 - 4 chain, undirected.
    return Graph.from_edges(5, [[i, i + 1] for i in range(4)], make_undirected=True)


class TestTraversal:
    def test_bfs_levels_on_chain(self, path_graph):
        np.testing.assert_array_equal(bfs_levels(path_graph, 0), [0, 1, 2, 3, 4])

    def test_bfs_unreachable_is_minus_one(self):
        g = Graph.from_edges(3, [[0, 1]])
        levels = bfs_levels(g, 2, "out")
        assert levels[0] == -1 and levels[2] == 0

    def test_bfs_direction_in(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2]])
        levels = bfs_levels(g, 2, "in")
        np.testing.assert_array_equal(levels, [2, 1, 0])

    def test_bfs_invalid_direction(self, path_graph):
        with pytest.raises(ValueError):
            bfs_levels(path_graph, 0, "sideways")

    def test_k_hop(self, path_graph):
        np.testing.assert_array_equal(np.sort(k_hop_neighbors(path_graph, 2, 1)), [1, 3])
        np.testing.assert_array_equal(np.sort(k_hop_neighbors(path_graph, 2, 2)), [0, 1, 3, 4])

    def test_k_hop_zero(self, path_graph):
        assert k_hop_neighbors(path_graph, 0, 0).size == 0

    def test_k_hop_negative_raises(self, path_graph):
        with pytest.raises(ValueError):
            k_hop_neighbors(path_graph, 0, -1)



class TestRandomWalks:
    def test_walks_follow_edges(self):
        g = Graph.from_edges(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
        walks = random_walks(g, np.array([0, 1]), num_walks=3, length=4,
                             rng=np.random.default_rng(0))
        assert walks.shape == (6, 5)
        for row in walks:
            for a, b in zip(row[:-1], row[1:]):
                assert b in g.out_neighbors(int(a)) or a == b

    def test_sink_stays_put(self):
        g = Graph.from_edges(2, [[0, 1]])
        walks = random_walks(g, np.array([1]), 1, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(walks[0], [1, 1, 1, 1])

    def test_invalid_params(self):
        g = Graph.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            random_walks(g, np.array([0]), 0, 3, np.random.default_rng(0))

    def test_top_k_visited_respects_k(self):
        g = community_graph(100, 2, 10, seed=0)
        r, n, w = top_k_visited(g, np.arange(10), 10, 3, 5, np.random.default_rng(0))
        for v in range(10):
            assert (r == v).sum() <= 5

    def test_top_k_weights_normalized(self):
        g = community_graph(100, 2, 10, seed=0)
        r, n, w = top_k_visited(g, np.arange(5), 10, 3, 5, np.random.default_rng(0))
        for v in np.unique(r):
            np.testing.assert_allclose(w[r == v].sum(), 1.0, rtol=1e-10)

    def test_top_k_invalid_k(self):
        g = Graph.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            top_k_visited(g, np.array([0]), 1, 1, 0, np.random.default_rng(0))

    def test_top_k_neighbors_exclude_root(self):
        g = community_graph(50, 2, 8, seed=1)
        r, n, _ = top_k_visited(g, np.arange(20), 10, 3, 10, np.random.default_rng(1))
        assert np.all(r != n)


class TestMetapaths:
    def test_metapath_validation(self):
        with pytest.raises(ValueError):
            Metapath((0,))

    def test_metapath_length(self):
        assert Metapath((0, 1, 0)).length == 3

    def test_dfs_matches_types(self):
        g = heterogeneous_graph(30, 8, 20, seed=0)
        mp = Metapath((0, 1, 0), "MDM")
        for inst in find_metapath_instances(g, [mp], roots=np.arange(30)):
            types = g.vertex_types[list(inst.vertices)]
            np.testing.assert_array_equal(types, [0, 1, 0])

    def test_dfs_no_repeated_vertices(self):
        g = heterogeneous_graph(30, 8, 20, seed=0)
        for inst in find_metapath_instances(g, [Metapath((0, 1, 0))]):
            assert len(set(inst.vertices)) == len(inst.vertices)

    def test_fast_matcher_equals_dfs(self):
        g = heterogeneous_graph(40, 10, 25, seed=3)
        for types in [(0, 1, 0), (0, 2, 0), (1, 0, 2)]:
            mp = Metapath(types)
            ref = {tuple(i.vertices) for i in find_metapath_instances(g, [mp])}
            fast = {tuple(r) for r in match_length3_metapath(g, mp).tolist()}
            assert ref == fast

    def test_fast_matcher_rejects_wrong_length(self):
        g = heterogeneous_graph(10, 3, 6, seed=0)
        with pytest.raises(ValueError):
            match_length3_metapath(g, Metapath((0, 1)))

    def test_cap_per_root(self):
        g = heterogeneous_graph(40, 10, 25, seed=3)
        capped = match_length3_metapath(g, Metapath((0, 1, 0)), max_instances_per_root=2)
        if capped.size:
            counts = np.bincount(capped[:, 0])
            assert counts.max() <= 2

    def test_count_length3(self):
        g = heterogeneous_graph(40, 10, 25, seed=3)
        mp = Metapath((0, 1, 0))
        # The count includes a == c paths that matching filters out.
        full = match_length3_metapath(g, mp).shape[0]
        counted = count_length3_instances(g, mp)
        assert counted >= full

    def test_empty_when_type_missing(self):
        g = heterogeneous_graph(10, 3, 6, seed=0)
        assert len(find_metapath_instances(g, [Metapath((7, 8, 7))])) == 0


class TestPartitioning:
    def test_hash_partition_balance(self):
        labels = hash_partition(100, 4)
        counts = np.bincount(labels)
        assert counts.max() - counts.min() <= 1

    def test_hash_invalid_k(self):
        with pytest.raises(ValueError):
            hash_partition(10, 0)

    def test_pulp_respects_k(self):
        g = community_graph(200, 4, 10, seed=0)
        labels = pulp_partition(g, 4, num_iters=3)
        assert labels.max() < 4 and labels.min() >= 0

    def test_pulp_cuts_fewer_edges_than_hash(self):
        g = community_graph(300, 4, 12, seed=1)
        pulp_cut = edge_cut(g, pulp_partition(g, 4, num_iters=5))
        hash_cut = edge_cut(g, hash_partition(g.num_vertices, 4))
        assert pulp_cut < hash_cut

    def test_edge_cut_zero_for_single_partition(self):
        g = community_graph(50, 2, 5, seed=0)
        assert edge_cut(g, np.zeros(50, dtype=int)) == 0

    def test_balance_factor_uniform(self):
        assert balance_factor(np.ones(8), hash_partition(8, 4), 4) == pytest.approx(1.0)

    def test_balance_factor_skewed(self):
        costs = np.array([100.0, 1.0, 1.0, 1.0])
        labels = np.array([0, 1, 2, 3])
        assert balance_factor(costs, labels, 4) > 3.0


class TestGenerators:
    def test_community_graph_structure(self):
        g = community_graph(400, 4, 10, seed=0)
        assert g.num_vertices == 400
        assert hasattr(g, "communities")
        # Most edges should be intra-community.
        src, dst = g.edges()
        comm = g.communities
        intra = (comm[src] == comm[dst]).mean()
        assert intra > 0.6

    def test_community_graph_validation(self):
        with pytest.raises(ValueError):
            community_graph(3, 10, 5)

    def test_power_law_heavy_tail(self):
        g = power_law_graph(2000, 10, seed=0)
        deg = g.out_degree()
        assert deg.max() > 10 * deg.mean()

    def test_power_law_min_size(self):
        with pytest.raises(ValueError):
            power_law_graph(1, 4)

    def test_heterogeneous_types(self):
        g = heterogeneous_graph(50, 10, 30, seed=0)
        assert g.num_types == 3
        assert g.vertices_of_type(0).size == 50
        assert g.vertices_of_type(1).size == 10
        assert g.vertices_of_type(2).size == 30

    def test_heterogeneous_edges_bipartite(self):
        g = heterogeneous_graph(50, 10, 30, seed=0)
        src, dst = g.edges()
        types = g.vertex_types
        # No director-actor or same-type edges in this schema.
        pairs = set(zip(types[src].tolist(), types[dst].tolist()))
        assert (1, 2) not in pairs and (2, 1) not in pairs
        assert (0, 0) not in pairs
