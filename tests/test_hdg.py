"""Unit tests for schema trees and HDG construction / storage from
NeighborSelection's instance arrays (§3.1, §4.1)."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    HDG,
    SchemaTree,
    hdg_from_flat_arrays,
    hdg_from_instance_arrays,
)
from repro.core.hdg import hdg_from_graph
from repro.core.selection import build_metapath_hdg
from repro.datasets.synthetic import imdb_like, reddit_like
from repro.graph import Graph, Metapath, community_graph
from repro.models import jknet, pgnn

from .instances import instance_arrays


class TestSchemaTree:
    def test_default_is_trivial(self):
        t = SchemaTree()
        assert t.is_trivial and t.num_leaves == 1

    def test_leaf_index(self):
        t = SchemaTree(("mp1", "mp2"))
        assert t.leaf_index("mp2") == 1

    def test_unknown_leaf_raises(self):
        with pytest.raises(KeyError):
            SchemaTree(("a",)).leaf_index("b")

    def test_empty_leaves_raise(self):
        with pytest.raises(ValueError):
            SchemaTree(())

    def test_duplicate_leaves_raise(self):
        with pytest.raises(ValueError):
            SchemaTree(("a", "a"))

    def test_nbytes(self):
        assert SchemaTree(("a", "b")).nbytes == 24  # root + 2 leaves


#: The Figure 3c example: root A(0) with 5 metapath instances, as
#: ``(root, leaves, type)``.
MAGNN_STYLE = [
    (0, (3, 2, 0), 0),   # p1 matches MP1
    (0, (4, 1, 0), 1),   # p2 matches MP2
    (0, (5, 6, 0), 1),   # p3
    (0, (7, 6, 0), 1),   # p4
    (0, (7, 8, 0), 1),   # p5
]


def hierarchical(instances, schema=SchemaTree(("MP1", "MP2")), n=9, **kw):
    """The depth-3 HDG over roots ``0..n-1`` of ``(root, leaves, type)``
    instances."""
    return hdg_from_instance_arrays(schema, np.arange(n),
                                    *instance_arrays(instances), n, **kw)


class TestFlatHDG:
    def test_from_graph(self):
        g = Graph.from_edges(4, [[0, 1], [2, 1], [3, 1]])
        hdg = hdg_from_graph(g)
        assert hdg.depth == 1
        assert hdg.num_roots == 4
        dst, src = hdg.sub_graph(1)
        # Vertex 1 has 3 in-neighbors.
        np.testing.assert_array_equal(np.sort(src[dst == 1]), [0, 2, 3])

    def test_flat_records_build_depth1(self):
        hdg = hdg_from_flat_arrays(SchemaTree(), np.arange(3), [0, 0, 2],
                                   [1, 2, 0], None, 3)
        assert hdg.depth == 1
        np.testing.assert_array_equal(np.diff(hdg.leaf_offsets), [2, 0, 1])

    def test_from_flat_arrays_equals_records(self):
        """Each root's (leaf, weight) pairs, in the order they came."""
        owners = np.array([2, 0, 0, 1])
        leaves = np.array([1, 2, 0, 2])
        weights = np.array([0.5, 0.25, 0.75, 1.0])
        a = hdg_from_flat_arrays(SchemaTree(), np.arange(3), owners, leaves, weights, 3)
        np.testing.assert_array_equal(a.leaf_offsets, [0, 2, 3, 4])
        np.testing.assert_array_equal(a.leaf_vertices, [2, 0, 2, 1])
        np.testing.assert_array_equal(a.leaf_weights, [0.25, 0.75, 1.0, 0.5])

    def test_flat_levels_reject_other_levels(self):
        hdg = hdg_from_graph(Graph.from_edges(2, [[0, 1]]))
        with pytest.raises(ValueError):
            hdg.sub_graph(2)

    def test_roots_without_records_get_empty_neighborhoods(self):
        hdg = hdg_from_flat_arrays(SchemaTree(), np.arange(4), [1], [0], None, 4)
        counts = np.diff(hdg.leaf_offsets)
        np.testing.assert_array_equal(counts, [0, 1, 0, 0])

    def test_record_root_outside_roots_raises(self):
        with pytest.raises(ValueError, match="not in the HDG root set"):
            hdg_from_flat_arrays(SchemaTree(), np.arange(3), [9], [0], None, 10)
        with pytest.raises(ValueError, match="not in the HDG root set"):
            hdg_from_instance_arrays(SchemaTree(), np.arange(3),
                                     *instance_arrays([(9, (0,), 0)]), 10)

    def test_record_type_out_of_schema_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            hierarchical([(0, (1,), 5)], SchemaTree(), 3)


class TestHierarchicalHDG:
    def test_figure3c_shape(self):
        hdg = hierarchical(MAGNN_STYLE)
        assert hdg.depth == 3
        assert hdg.max_level == 3
        assert hdg.num_instances == 5
        assert hdg.num_slots == 18  # 9 roots x 2 types
        # Root 0's MP1 slot has 1 instance, MP2 slot has 4.
        counts = hdg.instance_counts_per_type()
        np.testing.assert_array_equal(counts[0], [1, 4])

    def test_instance_types_and_roots(self):
        hdg = hierarchical(MAGNN_STYLE)
        np.testing.assert_array_equal(hdg.instance_types(), [0, 1, 1, 1, 1])
        np.testing.assert_array_equal(hdg.instance_roots(), [0, 0, 0, 0, 0])

    def test_level3_subgraph(self):
        hdg = hierarchical(MAGNN_STYLE)
        dst, src = hdg.sub_graph(3)
        assert dst.size == 15  # 5 instances x 3 members
        np.testing.assert_array_equal(src[dst == 0], [3, 2, 0])

    def test_level2_sources_are_consecutive(self):
        hdg = hierarchical(MAGNN_STYLE)
        dst, src = hdg.sub_graph(2)
        np.testing.assert_array_equal(src, np.arange(5))

    def test_level1_maps_slots_to_roots(self):
        hdg = hierarchical(MAGNN_STYLE)
        dst, src = hdg.sub_graph(1)
        np.testing.assert_array_equal(dst, np.repeat(np.arange(9), 2))

    def test_invalid_level_raises(self):
        hdg = hierarchical(MAGNN_STYLE)
        with pytest.raises(ValueError):
            hdg.sub_graph(4)

    def test_instance_level_accessors_reject_flat(self):
        hdg = hdg_from_graph(Graph.from_edges(2, [[0, 1]]))
        with pytest.raises(ValueError):
            hdg.instance_types()

    def test_from_instance_arrays_equals_records(self):
        """Instances grouped by (root, type) slot, kept in emission order
        within a slot, each followed by its own leaves."""
        shuffled = [MAGNN_STYLE[i] for i in (3, 1, 0, 4, 2)]
        a = hierarchical(shuffled)
        np.testing.assert_array_equal(
            a.leaf_vertices, [3, 2, 0, 7, 6, 0, 4, 1, 0, 7, 8, 0, 5, 6, 0])
        np.testing.assert_array_equal(a.leaf_offsets, np.arange(0, 16, 3))
        np.testing.assert_array_equal(a.instance_offsets,
                                      [0, 1] + [5] * 17)

    def test_empty_instance_raises(self):
        with pytest.raises(ValueError, match="at least one leaf"):
            hierarchical([(0, (1,), 0), (0, (), 1)])

    def test_negative_type_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            hierarchical([(0, (1,), -1)])

    def test_misaligned_instance_arrays_raise(self):
        roots, types, flat, counts = instance_arrays(MAGNN_STYLE)
        schema = SchemaTree(("MP1", "MP2"))
        with pytest.raises(ValueError, match="align"):
            hdg_from_instance_arrays(schema, np.arange(9), roots, types[:-1],
                                     flat, counts, 9)
        with pytest.raises(ValueError, match="cover leaf_flat"):
            hdg_from_instance_arrays(schema, np.arange(9), roots, types,
                                     flat[:-1], counts, 9)

    def test_leaf_weights_follow_their_instances(self):
        """Per-leaf weights move with their instance's leaves, whatever
        order the instances came in."""
        instances = [(1, (3, 4), 1), (0, (5,), 0), (0, (6, 7, 8), 1)]
        weights = np.array([0.5, 0.5, 1.0, 2.0, 2.0, 2.0])
        hdg = hierarchical(instances, weights=weights)
        # Slot order: (0, MP1), (0, MP2), (1, MP2).
        np.testing.assert_array_equal(hdg.leaf_vertices, [5, 6, 7, 8, 3, 4])
        np.testing.assert_array_equal(hdg.leaf_weights,
                                      [1.0, 2.0, 2.0, 2.0, 0.5, 0.5])
        assert hierarchical(instances).leaf_weights is None


class TestHDGStorage:
    def test_memory_optimization_saves_bytes(self):
        hdg = hierarchical(MAGNN_STYLE)
        assert hdg.nbytes < hdg.nbytes_unoptimized
        # Savings = elided Dst2 (5 * 8) + 8 schema copies (8 * 24).
        assert hdg.nbytes_unoptimized - hdg.nbytes == 5 * 8 + 8 * 24

    def test_flat_hdg_no_unoptimized_overhead(self):
        hdg = hdg_from_graph(Graph.from_edges(2, [[0, 1]]))
        assert hdg.nbytes == hdg.nbytes_unoptimized

    def test_validation_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            HDG(np.arange(2), SchemaTree(), np.array([0, 1]), np.array([0, 2, 1]))

    def test_validation_rejects_wrong_flat_offsets_size(self):
        with pytest.raises(ValueError):
            HDG(np.arange(3), SchemaTree(), np.array([0]), np.array([0, 1]))

    def test_validation_rejects_misaligned_weights(self):
        with pytest.raises(ValueError):
            HDG(np.arange(1), SchemaTree(), np.array([0]), np.array([0, 1]),
                leaf_weights=np.array([0.5, 0.5]))


class TestRestrictToRoots:
    def test_flat_restriction(self):
        g = community_graph(50, 2, 6, seed=0)
        hdg = hdg_from_graph(g)
        subset = np.array([3, 10, 40])
        sub = hdg.restrict_to_roots(subset)
        assert sub.num_roots == 3
        np.testing.assert_array_equal(sub.roots, subset)
        for i, v in enumerate(subset):
            lo, hi = sub.leaf_offsets[i], sub.leaf_offsets[i + 1]
            np.testing.assert_array_equal(
                np.sort(sub.leaf_vertices[lo:hi]), np.sort(g.in_neighbors(int(v)))
            )

    def test_hierarchical_restriction(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = hierarchical(MAGNN_STYLE + [(5, (1, 2, 5), 0)], schema)
        sub = hdg.restrict_to_roots(np.array([5]))
        assert sub.num_roots == 1
        assert sub.num_instances == 1
        np.testing.assert_array_equal(sub.leaf_vertices, [1, 2, 5])

    def test_restriction_covering_all_is_identity(self):
        hdg = hierarchical(MAGNN_STYLE)
        sub = hdg.restrict_to_roots(np.arange(9))
        np.testing.assert_array_equal(sub.leaf_vertices, hdg.leaf_vertices)
        np.testing.assert_array_equal(sub.instance_offsets, hdg.instance_offsets)

    def test_root_of_leaf_edges(self):
        hdg = hierarchical(MAGNN_STYLE)
        owners = hdg.root_of_leaf_edges()
        assert owners.size == 15
        np.testing.assert_array_equal(np.unique(owners), [0])


def _digest(hdg):
    """First 16 hex digits of the SHA-256 of an HDG's arrays (``b'N'``
    for a missing one), its schema's repr and its vertex count."""
    h = hashlib.sha256()
    for array in (hdg.roots, hdg.leaf_vertices, hdg.leaf_offsets,
                  hdg.instance_offsets, hdg.leaf_weights):
        h.update(b"N" if array is None else array.tobytes())
    h.update(repr(hdg.schema).encode())
    h.update(str(hdg.num_input_vertices).encode())
    return h.hexdigest()[:16]


def _pgnn(seed):
    graph = reddit_like(1500).graph
    return pgnn(8, 8, 4).neighbor_selection(graph, np.random.default_rng(seed))


def _jknet():
    graph = reddit_like(300).graph
    return jknet(8, 8, 4, max_distance=2).neighbor_selection(
        graph, np.random.default_rng(0))


def _dfs_metapaths(cap, roots=None):
    # A 4-vertex metapath sends build_metapath_hdg down the DFS matcher.
    mps = [Metapath((0, 1, 0)), Metapath((0, 2, 0)), Metapath((0, 1, 0, 2)),
           Metapath((1, 0, 1))]
    return build_metapath_hdg(imdb_like(200, 40, 120).graph, mps, cap, roots)


@pytest.mark.parametrize("build,digest", [
    (lambda: _pgnn(0), "4192cd4a00c33123"),
    (lambda: _pgnn(1), "f89ec86d7d290559"),
    (_jknet, "6b56781e4ef02dbd"),
    (lambda: _dfs_metapaths(None), "09cf998fc93b8420"),
    (lambda: _dfs_metapaths(3), "bc182c1413d28861"),
    (lambda: _dfs_metapaths(None, np.arange(0, 200, 7)), "ea6852e4b3d35d37"),
    (lambda: _dfs_metapaths(3, np.arange(0, 200, 7)), "ebfc590f6f67da9e"),
], ids=["pgnn-seed0", "pgnn-seed1", "jknet", "dfs", "dfs-cap3",
        "dfs-roots", "dfs-roots-cap3"])
def test_hierarchical_selections_build_the_pinned_hdgs(build, digest):
    """P-GNN's anchor sets, JK-Net's rings and the DFS metapath matcher
    build, array for array, the HDGs pinned by these digests (taken when
    each selection still emitted one record object per instance)."""
    assert _digest(build()) == digest
