"""Unit tests for the Graph structure (CSR/CSC storage, typed vertices)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, group_by


@pytest.fixture
def triangle():
    # 0 -> 1, 1 -> 2, 2 -> 0
    return Graph.from_edges(3, [[0, 1], [1, 2], [2, 0]])


@pytest.fixture
def sample():
    # The paper's Figure 2-style small graph (undirected).
    edges = [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]]
    return Graph.from_edges(5, edges, make_undirected=True)


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3

    def test_make_undirected_doubles_edges(self, sample):
        assert sample.num_edges == 10

    def test_empty_edge_list(self):
        g = Graph.from_edges(4, [])
        assert g.num_edges == 0
        assert g.out_degree(0) == 0

    def test_zero_vertices_raises(self):
        with pytest.raises(ValueError):
            Graph(0, np.array([]), np.array([]))

    def test_out_of_range_src_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [[0, 1], [5, 0]])

    def test_out_of_range_dst_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [[0, 5]])

    def test_bad_edge_shape_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, np.zeros((2, 3)))

    def test_mismatched_src_dst_raises(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([0, 1]), np.array([1]))

    def test_default_single_type(self, triangle):
        assert triangle.num_types == 1
        np.testing.assert_array_equal(triangle.vertex_types, np.zeros(3, dtype=int))

    def test_explicit_types(self):
        g = Graph.from_edges(3, [[0, 1]], vertex_types=np.array([0, 1, 2]),
                             type_names=["a", "b", "c"])
        assert g.num_types == 3
        assert g.type_names == ["a", "b", "c"]

    def test_bad_types_shape_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [[0, 1]], vertex_types=np.array([0, 1]))

    def test_negative_type_raises(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [[0, 1]], vertex_types=np.array([0, -1]))


class TestAdjacency:
    def test_out_neighbors(self, triangle):
        np.testing.assert_array_equal(triangle.out_neighbors(0), [1])

    def test_in_neighbors(self, triangle):
        np.testing.assert_array_equal(triangle.in_neighbors(0), [2])

    def test_degrees(self, sample):
        assert sample.out_degree(3) == 3  # 1, 2, 4
        assert sample.in_degree(3) == 3

    def test_degree_arrays(self, sample):
        assert sample.out_degree().sum() == sample.num_edges
        assert sample.in_degree().sum() == sample.num_edges

    def test_edges_roundtrip(self, triangle):
        src, dst = triangle.edges()
        rebuilt = Graph(3, src, dst)
        for v in range(3):
            np.testing.assert_array_equal(
                np.sort(rebuilt.out_neighbors(v)), np.sort(triangle.out_neighbors(v))
            )

    def test_coo_matches_csc(self, sample):
        dst, src = sample.coo()
        assert dst.size == sample.num_edges
        # Every (dst, src) pair must be a real edge.
        for d, s in zip(dst[:5], src[:5]):
            assert s in sample.in_neighbors(int(d))

    def test_vertices_of_type(self):
        g = Graph.from_edges(4, [[0, 1]], vertex_types=np.array([0, 1, 1, 0]))
        np.testing.assert_array_equal(g.vertices_of_type(1), [1, 2])

    def test_parallel_edges_preserved(self):
        g = Graph.from_edges(2, [[0, 1], [0, 1]])
        assert g.num_edges == 2
        assert g.out_degree(0) == 2


class TestDerivedGraphs:
    def test_subgraph_relabels(self, sample):
        sub, original = sample.subgraph(np.array([0, 1, 3]))
        assert sub.num_vertices == 3
        np.testing.assert_array_equal(original, [0, 1, 3])
        # Edge 0-1 survives; edges to 2 and 4 are dropped.
        assert 1 in sub.out_neighbors(0)

    def test_subgraph_keeps_types(self):
        g = Graph.from_edges(3, [[0, 1]], vertex_types=np.array([2, 0, 1]))
        sub, _ = g.subgraph(np.array([2, 0]))
        np.testing.assert_array_equal(sub.vertex_types, [1, 2])

    def test_subgraph_duplicate_vertices_raise(self, sample):
        with pytest.raises(ValueError):
            sample.subgraph(np.array([0, 0]))

    def test_reverse(self, triangle):
        rev = triangle.reverse()
        assert 0 in rev.out_neighbors(1)
        assert 1 not in rev.out_neighbors(0)

    def test_with_vertex_types(self, triangle):
        typed = triangle.with_vertex_types(np.array([0, 1, 2]))
        assert typed.num_types == 3
        assert triangle.num_types == 1  # original untouched
        # Adjacency shared.
        np.testing.assert_array_equal(typed.out_neighbors(0), triangle.out_neighbors(0))

    def test_with_vertex_types_validation(self, triangle):
        with pytest.raises(ValueError):
            triangle.with_vertex_types(np.array([0, 1]))


class TestAccounting:
    def test_nbytes_positive_and_scales(self):
        small = Graph.from_edges(10, [[0, 1]])
        big = Graph.from_edges(10, [[i, (i + 1) % 10] for i in range(10)])
        assert 0 < small.nbytes < big.nbytes

    def test_repr(self, triangle):
        assert "num_vertices=3" in repr(triangle)


#: one radix pass up to 2**16 keys, two above
NUM_KEYS = [1, 255, 2**16, 2**16 + 1, 2**20]
KEY_DTYPES = [np.int32, np.int64, np.uint16]


@st.composite
def bounded_keys(draw):
    """``(key, num_keys)``: random or all-equal ids, possibly empty."""
    num_keys = draw(st.sampled_from(NUM_KEYS))
    dtype = draw(st.sampled_from(KEY_DTYPES))
    top = min(num_keys, np.iinfo(dtype).max + 1) - 1
    size = draw(st.integers(0, 200))
    if draw(st.booleans()):
        ids = [draw(st.integers(0, top))] * size
    else:
        ids = draw(st.lists(st.integers(0, top), min_size=size, max_size=size))
    return np.array(ids, dtype=dtype), num_keys


def _reference(key, num_keys):
    counts = np.bincount(key.astype(np.int64), minlength=num_keys)
    return (np.concatenate([[0], np.cumsum(counts)]),
            np.argsort(key, kind="stable"))


class TestGroupBy:
    """``group_by`` is the bincount/cumsum/stable-argsort idiom, bit for
    bit, at every digit count."""

    @settings(max_examples=150, deadline=None)
    @given(bounded_keys())
    def test_matches_the_comparison_sort(self, case):
        key, num_keys = case
        offsets, order = group_by(key, num_keys)
        want_offsets, want_order = _reference(key, num_keys)
        assert offsets.dtype == np.int64 and offsets.shape == (num_keys + 1,)
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(order, want_order)

    @pytest.mark.parametrize("num_keys", NUM_KEYS)
    @pytest.mark.parametrize("dtype", KEY_DTYPES)
    def test_large_keys_cross_both_digits(self, num_keys, dtype):
        top = min(num_keys, np.iinfo(dtype).max + 1)
        key = np.random.default_rng(num_keys).integers(
            0, top, 50_000).astype(dtype)
        key[:3] = top - 1  # the largest id, in a run of ties
        offsets, order = group_by(key, num_keys)
        want_offsets, want_order = _reference(key, num_keys)
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(order, want_order)

    @pytest.mark.parametrize("num_keys", NUM_KEYS)
    def test_key_equal_to_num_keys_raises(self, num_keys):
        key = np.array([0, num_keys, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            group_by(key, num_keys)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_key_raises(self, dtype):
        # -1 casts to the uint16 digit 0xFFFF, an id in range here.
        with pytest.raises(ValueError):
            group_by(np.array([3, -1, 3], dtype=dtype), 2**16)
