"""Unit tests for schema trees, neighbor records, and HDG construction /
storage (§3.1, §4.1)."""

import numpy as np
import pytest

from repro.core import (
    HDG,
    NeighborRecord,
    SchemaTree,
    build_hdg,
    hdg_from_flat_arrays,
)
from repro.core.hdg import hdg_from_graph, hdg_from_instance_arrays
from repro.graph import Graph, community_graph


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


class TestNeighborRecord:
    def test_basic(self):
        r = NeighborRecord(0, (1, 2, 3), 1)
        assert r.leaves == (1, 2, 3)

    def test_empty_leaves_raise(self):
        with pytest.raises(ValueError):
            NeighborRecord(0, ())

    def test_negative_type_raises(self):
        with pytest.raises(ValueError):
            NeighborRecord(0, (1,), -1)


def magnn_style_records():
    """The Figure 3c example: root A(0) with 5 metapath instances."""
    return [
        NeighborRecord(0, (3, 2, 0), 0),   # p1 matches MP1
        NeighborRecord(0, (4, 1, 0), 1),   # p2 matches MP2
        NeighborRecord(0, (5, 6, 0), 1),   # p3
        NeighborRecord(0, (7, 6, 0), 1),   # p4
        NeighborRecord(0, (7, 8, 0), 1),   # p5
    ]


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
        records = [NeighborRecord(0, (1,)), NeighborRecord(0, (2,)), NeighborRecord(2, (0,))]
        hdg = build_hdg(records, SchemaTree(), np.arange(3), 3)
        assert hdg.depth == 1
        np.testing.assert_array_equal(np.diff(hdg.leaf_offsets), [2, 0, 1])

    def test_from_flat_arrays_equals_records(self):
        owners = np.array([2, 0, 0, 1])
        leaves = np.array([1, 2, 0, 2])
        weights = np.array([0.5, 0.25, 0.75, 1.0])
        a = hdg_from_flat_arrays(SchemaTree(), np.arange(3), owners, leaves, weights, 3)
        records = [
            NeighborRecord(int(o), (int(l),), 0, weight=float(w))
            for o, l, w in zip(owners, leaves, weights)
        ]
        b = build_hdg(records, SchemaTree(), np.arange(3), 3)
        np.testing.assert_array_equal(a.leaf_offsets, b.leaf_offsets)
        np.testing.assert_array_equal(a.leaf_vertices, b.leaf_vertices)
        np.testing.assert_allclose(a.leaf_weights, b.leaf_weights)

    def test_flat_levels_reject_other_levels(self):
        hdg = hdg_from_graph(Graph.from_edges(2, [[0, 1]]))
        with pytest.raises(ValueError):
            hdg.sub_graph(2)

    def test_roots_without_records_get_empty_neighborhoods(self):
        hdg = build_hdg([NeighborRecord(1, (0,))], SchemaTree(), np.arange(4), 4)
        counts = np.diff(hdg.leaf_offsets)
        np.testing.assert_array_equal(counts, [0, 1, 0, 0])

    def test_record_root_outside_roots_raises(self):
        with pytest.raises(ValueError):
            build_hdg([NeighborRecord(9, (0,))], SchemaTree(), np.arange(3), 10)

    def test_record_type_out_of_schema_raises(self):
        with pytest.raises(ValueError):
            build_hdg([NeighborRecord(0, (1,), 5)], SchemaTree(), np.arange(3), 3)


class TestHierarchicalHDG:
    def test_figure3c_shape(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        assert hdg.depth == 3
        assert hdg.max_level == 3
        assert hdg.num_instances == 5
        assert hdg.num_slots == 18  # 9 roots x 2 types
        # Root 0's MP1 slot has 1 instance, MP2 slot has 4.
        counts = hdg.instance_counts_per_type()
        np.testing.assert_array_equal(counts[0], [1, 4])

    def test_instance_types_and_roots(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        np.testing.assert_array_equal(hdg.instance_types(), [0, 1, 1, 1, 1])
        np.testing.assert_array_equal(hdg.instance_roots(), [0, 0, 0, 0, 0])

    def test_level3_subgraph(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        dst, src = hdg.sub_graph(3)
        assert dst.size == 15  # 5 instances x 3 members
        np.testing.assert_array_equal(src[dst == 0], [3, 2, 0])

    def test_level2_sources_are_consecutive(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        dst, src = hdg.sub_graph(2)
        np.testing.assert_array_equal(src, np.arange(5))

    def test_level1_maps_slots_to_roots(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        dst, src = hdg.sub_graph(1)
        np.testing.assert_array_equal(dst, np.repeat(np.arange(9), 2))

    def test_invalid_level_raises(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        with pytest.raises(ValueError):
            hdg.sub_graph(4)

    def test_instance_level_accessors_reject_flat(self):
        hdg = hdg_from_graph(Graph.from_edges(2, [[0, 1]]))
        with pytest.raises(ValueError):
            hdg.instance_types()

    def test_from_instance_arrays_equals_records(self):
        records = magnn_style_records()
        schema = SchemaTree(("MP1", "MP2"))
        a = build_hdg(records, schema, np.arange(9), 9)
        inst_roots = np.array([r.root for r in records])
        inst_types = np.array([r.nei_type for r in records])
        leaf_flat = np.concatenate([np.array(r.leaves) for r in records])
        leaf_counts = np.array([len(r.leaves) for r in records])
        b = hdg_from_instance_arrays(
            schema, np.arange(9), inst_roots, inst_types, leaf_flat, leaf_counts, 9
        )
        np.testing.assert_array_equal(a.leaf_vertices, b.leaf_vertices)
        np.testing.assert_array_equal(a.leaf_offsets, b.leaf_offsets)
        np.testing.assert_array_equal(a.instance_offsets, b.instance_offsets)

    def test_weighted_records_none_weight_counts_as_one(self):
        records = [
            NeighborRecord(1, (3, 4), 1, weight=0.5),
            NeighborRecord(0, (5,), 0, weight=None),
            NeighborRecord(0, (6, 7, 8), 1, weight=2.0),
        ]
        hdg = build_hdg(records, SchemaTree(("MP1", "MP2")), np.arange(9), 9)
        # Slot order: (0, MP1), (0, MP2), (1, MP2); every leaf carries
        # its instance's weight.
        np.testing.assert_array_equal(hdg.leaf_vertices, [5, 6, 7, 8, 3, 4])
        np.testing.assert_array_equal(hdg.leaf_weights,
                                      [1.0, 2.0, 2.0, 2.0, 0.5, 0.5])


class TestHDGStorage:
    def test_memory_optimization_saves_bytes(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
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
        records = magnn_style_records() + [NeighborRecord(5, (1, 2, 5), 0)]
        hdg = build_hdg(records, schema, np.arange(9), 9)
        sub = hdg.restrict_to_roots(np.array([5]))
        assert sub.num_roots == 1
        assert sub.num_instances == 1
        np.testing.assert_array_equal(sub.leaf_vertices, [1, 2, 5])

    def test_restriction_covering_all_is_identity(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        sub = hdg.restrict_to_roots(np.arange(9))
        np.testing.assert_array_equal(sub.leaf_vertices, hdg.leaf_vertices)
        np.testing.assert_array_equal(sub.instance_offsets, hdg.instance_offsets)

    def test_root_of_leaf_edges(self):
        schema = SchemaTree(("MP1", "MP2"))
        hdg = build_hdg(magnn_style_records(), schema, np.arange(9), 9)
        owners = hdg.root_of_leaf_edges()
        assert owners.size == 15
        np.testing.assert_array_equal(np.unique(owners), [0])
