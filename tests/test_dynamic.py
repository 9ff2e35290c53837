"""Tests for dynamic graphs: an edge edit re-selects only the roots it
touches and splices them into the HDG (the §7.2 closing remark:
pre-expansion must rebuild, NAU's NeighborSelection repairs)."""

import numpy as np
import pytest

from repro import obs
from repro.core import validate_hdg
from repro.core.hdg import hdg_from_graph
from repro.core.selection import build_metapath_hdg
from repro.graph import Graph, Metapath, heterogeneous_graph
from repro.models import MAGNN, gcn, pinsage

MPS = [Metapath((0, 1, 0), "MDM"), Metapath((0, 2, 0), "MAM")]
RESELECTED = "profile.op.neighbor_selection.reselect.bytes"


@pytest.fixture
def hgraph():
    return heterogeneous_graph(40, 10, 25, seed=0)


def assert_same_hdg(got, expected):
    for name in ("roots", "leaf_vertices", "leaf_offsets", "instance_offsets"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name),
                                      err_msg=name)


def changed_roots(old, new):
    """Roots whose slots differ between two HDGs over the same roots."""
    out = []
    for r in range(old.num_roots):
        a, b = old.restrict_to_roots([r]), new.restrict_to_roots([r])
        if not (np.array_equal(a.instance_offsets, b.instance_offsets)
                and np.array_equal(a.leaf_offsets, b.leaf_offsets)
                and np.array_equal(a.leaf_vertices, b.leaf_vertices)):
            out.append(int(old.roots[r]))
    return out


def removal_reference(graph, edges):
    """The per-mention loop ``with_edges_removed`` vectorises: each
    mention drops the first not-yet-dropped copy in CSR order."""
    src, dst = graph.edges()
    left = {}
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
        left[(int(u), int(v))] = left.get((int(u), int(v)), 0) + 1
    keep = np.ones(src.size, dtype=bool)
    for i, edge in enumerate(zip(src.tolist(), dst.tolist())):
        if left.get(edge, 0) > 0:
            keep[i] = False
            left[edge] -= 1
    return src[keep], dst[keep]


class TestGraphEvolution:
    def test_add_edges(self):
        g = Graph.from_edges(4, [[0, 1]])
        g2 = g.with_edges_added([[1, 2], [2, 3]])
        assert g2.num_edges == 3
        assert 2 in g2.out_neighbors(1)
        assert g.num_edges == 1  # original untouched

    def test_remove_edges(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2], [0, 1]])
        g2 = g.with_edges_removed([[0, 1]])
        assert g2.num_edges == 2  # one copy of the multi-edge removed
        assert 1 in g2.out_neighbors(0)
        g3 = g2.with_edges_removed([[0, 1]])
        assert 1 not in g3.out_neighbors(0)

    def test_remove_absent_edge_is_noop(self):
        g = Graph.from_edges(3, [[0, 1]])
        assert g.with_edges_removed([[2, 0]]).num_edges == 1

    @pytest.mark.parametrize("edge", [(2, -1), (4, 0)], ids=["negative", "past_end"])
    def test_remove_rejects_out_of_range_ids(self, edge):
        # (2, -1) keys to 2 * 4 - 1 == 1 * 4 + 3: unchecked, it deleted (1, 3).
        g = Graph.from_edges(4, [[0, 2], [1, 3]])
        with pytest.raises(ValueError, match="vertex id out of range"):
            g.with_edges_removed([edge])
        with pytest.raises(ValueError, match="vertex id out of range"):
            g.with_edges_added([edge])

    def test_remove_matches_per_mention_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            edges = rng.integers(0, n, (int(rng.integers(0, 25)), 2))
            g = Graph.from_edges(n, edges)
            mentions = rng.integers(0, n, (int(rng.integers(0, 6)), 2))
            if edges.size:
                mentions = np.concatenate([mentions, edges[rng.integers(0, len(edges), 4)]])
            src, dst = g.with_edges_removed(mentions).edges()
            ref_src, ref_dst = removal_reference(g, mentions)
            np.testing.assert_array_equal(src, ref_src)
            np.testing.assert_array_equal(dst, ref_dst)

    def test_types_carry_over(self, hgraph):
        g2 = hgraph.with_edges_added([[0, 1]])
        np.testing.assert_array_equal(g2.vertex_types, hgraph.vertex_types)
        assert g2.type_names == hgraph.type_names


class TestReselect:
    @pytest.mark.parametrize("cap", [None, 3])
    def test_incremental_equals_rebuild_over_evolution(self, hgraph, cap):
        """After every random add+remove batch the repaired HDG is
        array-for-array the fresh selection, and ``touched`` is exactly
        the roots whose slots changed."""
        model = MAGNN([6, 8, 3], MPS, max_instances_per_root=cap)
        rng = np.random.default_rng(2)
        graph = hgraph
        hdg = model.neighbor_selection(graph, rng)
        for step in range(8):
            movies = np.flatnonzero(graph.vertex_types == 0)
            others = np.flatnonzero(graph.vertex_types != 0)
            a = rng.choice(movies, 2)
            b = rng.choice(others, 2)
            added = np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)])
            src, dst = graph.edges()
            idx = rng.choice(src.size, 3, replace=False)
            removed = np.stack([src[idx], dst[idx]], 1)
            edited = graph.with_edges_removed(removed).with_edges_added(added)
            new, touched = model.reselect(hdg, edited, np.concatenate([added, removed]))
            expected = model.neighbor_selection(edited, rng)
            assert_same_hdg(new, expected)
            validate_hdg(new)
            assert touched.tolist() == changed_roots(hdg, expected), f"step {step}"
            hdg, graph = new, edited

    def test_pure_additions(self, hgraph):
        model = MAGNN([6, 8, 3], MPS)
        hdg = model.neighbor_selection(hgraph, None)
        movie = int(hgraph.vertices_of_type(0)[0])
        director = int(hgraph.vertices_of_type(1)[0])
        added = np.array([[movie, director], [director, movie]])
        edited = hgraph.with_edges_added(added)
        new, touched = model.reselect(hdg, edited, added)
        assert new.num_instances >= hdg.num_instances
        assert movie in touched
        assert_same_hdg(new, model.neighbor_selection(edited, None))

    def test_pure_removals_shrink(self, hgraph):
        model = MAGNN([6, 8, 3], MPS)
        hdg = model.neighbor_selection(hgraph, None)
        src, dst = hgraph.edges()
        types = hgraph.vertex_types
        md = np.flatnonzero((types[src] == 0) & (types[dst] == 1))[:5]
        removed = np.stack([src[md], dst[md]], 1)
        edited = hgraph.with_edges_removed(removed)
        new, _ = model.reselect(hdg, edited, removed)
        assert new.num_instances <= hdg.num_instances
        assert_same_hdg(new, model.neighbor_selection(edited, None))

    def test_delta_far_smaller_than_total(self, hgraph):
        """The point of the repair: one edge change re-selects a handful
        of roots' instances, not the whole instance set."""
        model = MAGNN([6, 8, 3], MPS)
        hdg = model.neighbor_selection(hgraph, None)
        movie = int(hgraph.vertices_of_type(0)[3])
        actor = int(hgraph.vertices_of_type(2)[3])
        added = np.array([[movie, actor]])
        counter = obs.counter(RESELECTED)
        before = counter.total
        new, touched = model.reselect(hdg, hgraph.with_edges_added(added), added)
        reselected = (counter.total - before) / new.leaf_vertices.itemsize / 3
        assert 0 < reselected < new.num_instances / 4
        assert touched.tolist() == [movie]

    def test_parallel_edges_count_multiplicity(self):
        """On multigraphs the repair agrees with the bulk matcher array
        for array: an instance through a doubled edge appears twice
        (aggregation weight = edge multiplicity), and removing the last
        copy of an edge drops its instances."""
        types = np.array([0, 1, 2, 1, 2])
        edges = [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (0, 3), (3, 4)]
        graph = Graph.from_edges(5, edges, vertex_types=types)
        mp = Metapath((0, 1, 2))
        model = MAGNN([4, 2], [mp])
        hdg = model.neighbor_selection(graph, None)
        # (0,1,2) runs through 2 copies of (0,1) x 3 copies of (1,2).
        assert hdg.num_instances == 2 * 3 + 1

        # Evolve: another (1,2) copy, one fewer (0,1) copy.
        evolved = graph.with_edges_removed([(0, 1)]).with_edges_added([(1, 2)])
        hdg, touched = model.reselect(hdg, evolved, [(1, 2), (0, 1)])
        assert_same_hdg(hdg, build_metapath_hdg(evolved, [mp]))
        assert touched.tolist() == [0]

        # Removing the last parallel copy drops the instances entirely.
        final = evolved.with_edges_removed([(0, 1)])
        hdg, touched = model.reselect(hdg, final, [(0, 1)])
        assert_same_hdg(hdg, build_metapath_hdg(final, [mp]))
        assert hdg.num_instances == 1  # only (0,3,4) survives
        np.testing.assert_array_equal(hdg.leaf_vertices, [0, 3, 4])

    def test_opaque_selection_returns_none(self, hgraph):
        long_paths = MAGNN([6, 3], [Metapath((0, 1, 0, 2))])
        edge = np.array([[0, int(hgraph.vertices_of_type(1)[0])]])
        edited = hgraph.with_edges_added(edge)
        hdg = long_paths.neighbor_selection(hgraph, None)
        assert long_paths.reselect(hdg, edited, edge) is None
        model = pinsage(6, 8, 3, num_traces=2, n_hops=2, top_k=3)
        hdg = model.neighbor_selection(hgraph, np.random.default_rng(0))
        assert model.reselect(hdg, edited, edge) is None

    def test_adjacency_fast_path(self, hgraph):
        model = gcn(6, 8, 3)
        changed = np.array([[0, 5], [7, 5], [3, 9]])
        edited = hgraph.with_edges_added(changed)
        new, touched = model.reselect(hdg_from_graph(hgraph), edited, changed)
        assert_same_hdg(new, hdg_from_graph(edited))
        np.testing.assert_array_equal(touched, [5, 9])

    def test_hdg_usable_for_training_after_updates(self, hgraph):
        from repro.core import FlexGraphEngine
        from repro.tensor import Adam, Tensor

        model = MAGNN([6, 8, 3], MPS)
        added = np.array([[0, int(hgraph.vertices_of_type(1)[0])]])
        edited = hgraph.with_edges_added(added)
        hdg, _ = model.reselect(model.neighbor_selection(hgraph, None), edited, added)
        engine = FlexGraphEngine(model, edited)
        engine.hdgs.pin(hdg)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((edited.num_vertices, 6))
        labels = rng.integers(0, 3, edited.num_vertices)
        stats = engine.train_epoch(Tensor(feats), labels, Adam(model.parameters(), 0.01))
        assert np.isfinite(stats.loss)


class TestSplice:
    def test_rejects_schema_mismatch(self, hgraph):
        hdg = build_metapath_hdg(hgraph, MPS)
        other = build_metapath_hdg(hgraph, MPS[:1], roots=[0, 1])
        with pytest.raises(ValueError, match="schema"):
            hdg.splice(other)

    def test_rejects_unknown_root_and_flat_hdgs(self, hgraph):
        some = build_metapath_hdg(hgraph, MPS, roots=[0, 1, 2])
        with pytest.raises(ValueError, match="root 5 is not in this HDG"):
            some.splice(build_metapath_hdg(hgraph, MPS, roots=[5]))
        with pytest.raises(ValueError, match="depth-3"):
            hdg_from_graph(hgraph).splice(some)

    def test_unordered_roots_splice_like_sorted(self, hgraph):
        hdg = build_metapath_hdg(hgraph, MPS)
        edited = hgraph.with_edges_added([[1, 45], [30, 60]])
        expected = build_metapath_hdg(edited, MPS)
        for roots in ([1, 30], [30, 1]):
            sub = build_metapath_hdg(edited, MPS, roots=roots)
            assert_same_hdg(hdg.splice(sub), expected)
