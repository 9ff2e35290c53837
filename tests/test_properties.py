"""Property-based tests (hypothesis) on core data structures and the
equivalence invariants the system's correctness rests on."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    ExecutionStrategy,
    NeighborRecord,
    SchemaTree,
    build_hdg,
    hierarchical_aggregate,
)
from repro.core.aggregation import get_aggregator
from repro.graph import Graph, range_positions
from repro.tensor import (
    Tensor,
    scatter_add,
    scatter_mean,
    segment_reduce_csr,
    softmax,
)

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def scatter_case(draw):
    """A (values, index, dim_size) triple for scatter reductions."""
    rows = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.standard_normal((rows, dim))
    index = rng.integers(0, n, rows)
    return values, index, n


@st.composite
def segment_case(draw):
    """(values, offsets, sources) with possibly empty segments."""
    n_rows = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 4))
    n_seg = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.standard_normal((n_rows, dim))
    counts = rng.integers(0, 6, n_seg)
    offsets = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    sources = rng.integers(0, n_rows, int(counts.sum()))
    return values, offsets, sources


@st.composite
def random_graph(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    return Graph(n, src, dst)


@st.composite
def hierarchical_records(draw):
    """Random depth-3 HDG inputs over a small vertex universe."""
    n = draw(st.integers(3, 15))
    num_types = draw(st.integers(1, 3))
    num_records = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    records = []
    for _ in range(num_records):
        root = int(rng.integers(0, n))
        size = int(rng.integers(1, 5))
        leaves = tuple(int(v) for v in rng.integers(0, n, size))
        records.append(NeighborRecord(root, leaves, int(rng.integers(0, num_types))))
    schema = SchemaTree(tuple(f"t{i}" for i in range(num_types)))
    return records, schema, n


# ---------------------------------------------------------------------------
# Scatter / segment invariants
# ---------------------------------------------------------------------------


class TestScatterProperties:
    @given(scatter_case())
    @settings(max_examples=50, deadline=None)
    def test_scatter_add_preserves_mass(self, case):
        values, index, n = case
        out = scatter_add(Tensor(values), index, n).numpy()
        np.testing.assert_allclose(out.sum(), values.sum(), rtol=1e-9, atol=1e-9)

    @given(scatter_case())
    @settings(max_examples=50, deadline=None)
    def test_scatter_mean_bounded_by_extremes(self, case):
        values, index, n = case
        out = scatter_mean(Tensor(values), index, n).numpy()
        lo, hi = values.min() - 1e-9, values.max() + 1e-9
        present = np.bincount(index, minlength=n) > 0
        assert (out[present] >= lo).all() and (out[present] <= hi).all()

    @given(segment_case())
    @settings(max_examples=50, deadline=None)
    def test_segment_sum_equals_scatter_sum(self, case):
        values, offsets, sources = case
        n = offsets.size - 1
        seg = segment_reduce_csr(Tensor(values), offsets, sources, "sum").numpy()
        dst = np.repeat(np.arange(n), np.diff(offsets))
        ref = scatter_add(Tensor(values)[sources], dst, n).numpy()
        np.testing.assert_allclose(seg, ref, rtol=1e-9, atol=1e-9)

    @given(segment_case())
    @settings(max_examples=30, deadline=None)
    def test_segment_gradient_matches_scatter_gradient(self, case):
        values, offsets, sources = case
        n = offsets.size - 1
        dst = np.repeat(np.arange(n), np.diff(offsets))
        a = Tensor(values.copy(), requires_grad=True)
        segment_reduce_csr(a, offsets, sources, "sum").sum().backward()
        b = Tensor(values.copy(), requires_grad=True)
        scatter_add(b[sources], dst, n).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, rtol=1e-9, atol=1e-9)

    @given(st.lists(finite_floats, min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex(self, xs):
        out = softmax(Tensor(np.array([xs]))).numpy()
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


class TestGraphProperties:
    @given(random_graph())
    @settings(max_examples=50, deadline=None)
    def test_degree_sums_equal_edges(self, g):
        assert g.out_degree().sum() == g.num_edges
        assert g.in_degree().sum() == g.num_edges

    @given(random_graph())
    @settings(max_examples=50, deadline=None)
    def test_csr_csc_consistency(self, g):
        """Every out-edge appears exactly once as an in-edge."""
        src, dst = g.edges()
        pairs_out = sorted(zip(src.tolist(), dst.tolist()))
        cdst, csrc = g.coo()
        pairs_in = sorted(zip(csrc.tolist(), cdst.tolist()))
        assert pairs_out == pairs_in

    @given(random_graph())
    @settings(max_examples=30, deadline=None)
    def test_reverse_is_involution(self, g):
        rr = g.reverse().reverse()
        np.testing.assert_array_equal(
            np.sort(np.stack(rr.edges()), axis=1), np.sort(np.stack(g.edges()), axis=1)
        )


# ---------------------------------------------------------------------------
# HDG invariants
# ---------------------------------------------------------------------------


class TestHDGProperties:
    @given(hierarchical_records())
    @settings(max_examples=40, deadline=None)
    def test_hdg_conserves_records(self, case):
        records, schema, n = case
        hdg = build_hdg(records, schema, np.arange(n), n, flat=False)
        assert hdg.num_instances == len(records)
        assert hdg.leaf_vertices.size == sum(len(r.leaves) for r in records)
        # Per (root, type) instance counts must match the records.
        counts = hdg.instance_counts_per_type()
        expected = np.zeros((n, schema.num_leaves), dtype=int)
        for r in records:
            expected[r.root, r.nei_type] += 1
        np.testing.assert_array_equal(counts, expected)

    @given(hierarchical_records())
    @settings(max_examples=30, deadline=None)
    def test_storage_optimization_never_larger(self, case):
        records, schema, n = case
        hdg = build_hdg(records, schema, np.arange(n), n, flat=False)
        assert hdg.nbytes <= hdg.nbytes_unoptimized

    @given(hierarchical_records(), st.sampled_from(["sum", "mean", "max", "min"]))
    @settings(max_examples=30, deadline=None)
    def test_strategies_agree_on_random_hdgs(self, case, agg_name):
        records, schema, n = case
        hdg = build_hdg(records, schema, np.arange(n), n, flat=False)
        rng = np.random.default_rng(0)
        feats = Tensor(rng.standard_normal((n, 3)))
        aggs = [get_aggregator(agg_name) for _ in range(3)]
        outs = [
            hierarchical_aggregate(hdg, feats, aggs, s).numpy()
            for s in (ExecutionStrategy.SA, ExecutionStrategy.SA_FA, ExecutionStrategy.HA)
        ]
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-8, atol=1e-9)

    @given(hierarchical_records())
    @settings(max_examples=30, deadline=None)
    def test_restrict_then_reassemble_covers_all_roots(self, case):
        records, schema, n = case
        hdg = build_hdg(records, schema, np.arange(n), n, flat=False)
        halves = [np.arange(0, n // 2), np.arange(n // 2, n)]
        total_instances = sum(
            hdg.restrict_to_roots(h).num_instances for h in halves if h.size
        )
        assert total_instances == hdg.num_instances

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 6)),
                    max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_ranges_gather_matches_the_two_repeat_formula(self, ranges):
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        counts = np.array([c for _, c in ranges], dtype=np.int64)
        total = int(counts.sum())
        expected = np.empty(0, dtype=np.int64)
        if total:
            offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
            expected = (np.arange(total, dtype=np.int64)
                        - np.repeat(offsets, counts) + np.repeat(starts, counts))
        got = range_positions(starts, counts)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
