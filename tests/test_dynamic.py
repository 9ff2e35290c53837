"""Tests for dynamic graphs and incremental metapath HDG maintenance
(the §7.2 closing remark: pre-expansion cannot handle evolving graphs)."""

import numpy as np
import pytest

from repro.core import MetapathHDGMaintainer, validate_hdg
from repro.core.dynamic import instances_through_edges
from repro.graph import Graph, Metapath, heterogeneous_graph
from repro.graph.metapath import match_length3_metapath

MPS = [Metapath((0, 1, 0), "MDM"), Metapath((0, 2, 0), "MAM")]


def canonical_instances(graph, mp):
    matched = match_length3_metapath(graph, mp)
    if matched.size == 0:
        return set()
    return set(map(tuple, np.unique(matched, axis=0).tolist()))


@pytest.fixture
def hgraph():
    return heterogeneous_graph(40, 10, 25, seed=0)


class TestGraphEvolution:
    def test_add_edges(self):
        g = Graph.from_edges(4, [[0, 1]])
        g2 = g.with_edges_added([[1, 2], [2, 3]])
        assert g2.num_edges == 3
        assert g2.has_edge(1, 2)
        assert g.num_edges == 1  # original untouched

    def test_remove_edges(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2], [0, 1]])
        g2 = g.with_edges_removed([[0, 1]])
        assert g2.num_edges == 2  # one copy of the multi-edge removed
        assert g2.has_edge(0, 1)
        g3 = g2.with_edges_removed([[0, 1]])
        assert not g3.has_edge(0, 1)

    def test_remove_absent_edge_is_noop(self):
        g = Graph.from_edges(3, [[0, 1]])
        assert g.with_edges_removed([[2, 0]]).num_edges == 1

    def test_types_carry_over(self, hgraph):
        g2 = hgraph.with_edges_added([[0, 1]])
        np.testing.assert_array_equal(g2.vertex_types, hgraph.vertex_types)
        assert g2.type_names == hgraph.type_names


class TestInstancesThroughEdges:
    def test_absent_edge_yields_nothing(self, hgraph):
        # A (movie, director) pair with no edge between them.
        movie = int(hgraph.vertices_of_type(0)[0])
        director = next(
            int(d) for d in hgraph.vertices_of_type(1)
            if not hgraph.has_edge(movie, int(d))
        )
        out = instances_through_edges(hgraph, MPS[0], np.array([[movie, director]]))
        assert out.shape == (0, 3)

    def test_found_instances_use_the_edge(self, hgraph):
        src, dst = hgraph.edges()
        types = hgraph.vertex_types
        pick = np.flatnonzero((types[src] == 0) & (types[dst] == 1))[0]
        edge = np.array([[src[pick], dst[pick]]])
        out = instances_through_edges(hgraph, MPS[0], edge)
        for a, b, c in out:
            assert (a, b) == (edge[0, 0], edge[0, 1]) or (b, c) == (edge[0, 0], edge[0, 1])

    def test_results_are_real_instances(self, hgraph):
        src, dst = hgraph.edges()
        out = instances_through_edges(hgraph, MPS[1], np.stack([src[:20], dst[:20]], 1))
        ref = canonical_instances(hgraph, MPS[1])
        assert set(map(tuple, out.tolist())) <= ref

    def test_rejects_long_metapaths(self, hgraph):
        with pytest.raises(ValueError):
            instances_through_edges(hgraph, Metapath((0, 1, 2, 0)), np.zeros((1, 2), int))


class TestMaintainer:
    def test_validation(self, hgraph):
        with pytest.raises(ValueError):
            MetapathHDGMaintainer(hgraph, [])
        with pytest.raises(ValueError):
            MetapathHDGMaintainer(hgraph, [Metapath((0, 1, 2, 0))])

    def test_initial_state_matches_full_build(self, hgraph):
        maintainer = MetapathHDGMaintainer(hgraph, MPS)
        for i, mp in enumerate(MPS):
            assert set(map(tuple, maintainer._instances[i].tolist())) == \
                canonical_instances(hgraph, mp)
        validate_hdg(maintainer.build_hdg())

    def test_incremental_equals_rebuild_over_evolution(self, hgraph):
        maintainer = MetapathHDGMaintainer(hgraph, MPS)
        rng = np.random.default_rng(2)
        for step in range(5):
            graph = maintainer.graph
            movies = np.flatnonzero(graph.vertex_types == 0)
            others = np.flatnonzero(graph.vertex_types != 0)
            a = rng.choice(movies, 2)
            b = rng.choice(others, 2)
            added = np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)])
            src, dst = graph.edges()
            idx = rng.choice(src.size, 2, replace=False)
            removed = np.stack([src[idx], dst[idx]], 1)
            hdg = maintainer.apply_edge_changes(added=added, removed=removed)
            validate_hdg(hdg)
            for i, mp in enumerate(MPS):
                assert set(map(tuple, maintainer._instances[i].tolist())) == \
                    canonical_instances(maintainer.graph, mp), f"diverged at step {step}"

    def test_pure_additions(self, hgraph):
        maintainer = MetapathHDGMaintainer(hgraph, MPS)
        before = maintainer.num_instances
        movie = int(hgraph.vertices_of_type(0)[0])
        director = int(hgraph.vertices_of_type(1)[0])
        maintainer.apply_edge_changes(
            added=np.array([[movie, director], [director, movie]])
        )
        assert maintainer.num_instances >= before
        for i, mp in enumerate(MPS):
            assert set(map(tuple, maintainer._instances[i].tolist())) == \
                canonical_instances(maintainer.graph, mp)

    def test_pure_removals_shrink(self, hgraph):
        maintainer = MetapathHDGMaintainer(hgraph, MPS)
        before = maintainer.num_instances
        src, dst = hgraph.edges()
        types = hgraph.vertex_types
        md = np.flatnonzero((types[src] == 0) & (types[dst] == 1))[:5]
        maintainer.apply_edge_changes(removed=np.stack([src[md], dst[md]], 1))
        assert maintainer.num_instances <= before
        for i, mp in enumerate(MPS):
            assert set(map(tuple, maintainer._instances[i].tolist())) == \
                canonical_instances(maintainer.graph, mp)

    def test_delta_far_smaller_than_total(self, hgraph):
        """The point of incrementality: one edge change touches a handful
        of instances, not the whole instance set."""
        maintainer = MetapathHDGMaintainer(hgraph, MPS)
        total = maintainer.num_instances
        movie = int(hgraph.vertices_of_type(0)[3])
        actor = int(hgraph.vertices_of_type(2)[3])
        maintainer.apply_edge_changes(added=np.array([[movie, actor]]))
        assert maintainer.last_delta < total / 4

    def test_parallel_edges_count_multiplicity(self):
        """On multigraphs the maintainer must agree with the bulk
        matcher: an instance through a doubled edge appears twice
        (aggregation weight = edge multiplicity), both at construction
        and across incremental updates."""
        types = np.array([0, 1, 2, 1, 2])
        edges = [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (0, 3), (3, 4)]
        graph = Graph.from_edges(5, edges, vertex_types=types)
        mp = Metapath((0, 1, 2))

        def leaf_triples(hdg):
            leaves = hdg.leaf_vertices.reshape(-1, 3)
            return sorted(map(tuple, leaves.tolist()))

        from repro.core.selection import build_metapath_hdg

        maintainer = MetapathHDGMaintainer(graph, [mp])
        # (0,1,2) runs through 2 copies of (0,1) x 3 copies of (1,2).
        assert maintainer.num_instances == 2 * 3 + 1
        assert leaf_triples(maintainer.build_hdg()) == \
            leaf_triples(build_metapath_hdg(graph, [mp]))

        # Evolve: another (1,2) copy, one fewer (0,1) copy.
        maintainer.apply_edge_changes(added=[(1, 2)], removed=[(0, 1)])
        evolved = graph.with_edges_removed([(0, 1)]).with_edges_added([(1, 2)])
        assert leaf_triples(maintainer.build_hdg()) == \
            leaf_triples(build_metapath_hdg(evolved, [mp]))

        # Removing the last parallel copy drops the instances entirely.
        maintainer.apply_edge_changes(removed=[(0, 1)])
        final = evolved.with_edges_removed([(0, 1)])
        assert leaf_triples(maintainer.build_hdg()) == \
            leaf_triples(build_metapath_hdg(final, [mp]))
        assert maintainer.num_instances == 1  # only (0,3,4) survives

    def test_hdg_usable_for_training_after_updates(self, hgraph):
        from repro.core import FlexGraphEngine
        from repro.models import MAGNN
        from repro.tensor import Adam, Tensor

        maintainer = MetapathHDGMaintainer(hgraph, MPS)
        maintainer.apply_edge_changes(
            added=np.array([[0, int(hgraph.vertices_of_type(1)[0])]])
        )
        hdg = maintainer.build_hdg()

        model = MAGNN([6, 8, 3], MPS)
        # Inject the maintained HDG instead of re-selecting.
        model.neighbor_selection = lambda graph, rng: hdg  # type: ignore
        engine = FlexGraphEngine(model, maintainer.graph)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((maintainer.graph.num_vertices, 6))
        labels = rng.integers(0, 3, maintainer.graph.num_vertices)
        stats = engine.train_epoch(Tensor(feats), labels, Adam(model.parameters(), 0.01))
        assert np.isfinite(stats.loss)
