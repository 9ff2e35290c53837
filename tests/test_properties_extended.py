"""Additional property-based tests: sampling, PageRank, communication
plans and on-disk storage round-trips under random inputs."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import validate_hdg
from repro.core.hdg import hdg_from_graph
from repro.core.step import Partition, sample_fanout
from repro.distributed import CommConfig, dependency_stats, plan_layer_comm
from repro.distributed.rank import Rank, attach_hdg
from repro.graph import Graph
from repro.graph.pagerank import pagerank


@st.composite
def random_graph(draw, min_n=2, max_n=25):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    return Graph(n, src, dst)


class TestSamplingProperties:
    @given(random_graph(), st.integers(1, 6), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_fanout_bounds_and_validity(self, g, fanout, seed):
        hdg = hdg_from_graph(g)
        sampled = sample_fanout(hdg, fanout, np.random.default_rng(seed))
        validate_hdg(sampled)
        counts = np.diff(sampled.leaf_offsets)
        assert counts.max(initial=0) <= fanout
        # Sampled fan-in equals min(original, fanout) per root.
        original = np.diff(hdg.leaf_offsets)
        np.testing.assert_array_equal(counts, np.minimum(original, fanout))

    @given(random_graph(), st.integers(1, 4), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_sampled_edges_are_subset(self, g, fanout, seed):
        hdg = hdg_from_graph(g)
        sampled = sample_fanout(hdg, fanout, np.random.default_rng(seed))
        for v in range(g.num_vertices):
            lo, hi = sampled.leaf_offsets[v], sampled.leaf_offsets[v + 1]
            kept = sampled.leaf_vertices[lo:hi]
            full_lo, full_hi = hdg.leaf_offsets[v], hdg.leaf_offsets[v + 1]
            full = hdg.leaf_vertices[full_lo:full_hi]
            # Multiset containment.
            kept_counts = dict(zip(*np.unique(kept, return_counts=True)))
            full_counts = dict(zip(*np.unique(full, return_counts=True)))
            assert all(full_counts.get(k, 0) >= c for k, c in kept_counts.items())


class TestPageRankProperties:
    @given(random_graph(min_n=2, max_n=20), st.floats(0.5, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_probability_vector(self, g, damping):
        pr = pagerank(g, damping=damping)
        assert pr.shape == (g.num_vertices,)
        np.testing.assert_allclose(pr.sum(), 1.0, rtol=1e-6)
        assert (pr >= 0).all()


class TestCommPlanProperties:
    @given(random_graph(min_n=4, max_n=25), st.integers(2, 4),
           st.integers(8, 512))
    @settings(max_examples=40, deadline=None)
    def test_plan_ordering_invariants(self, g, k, feat_bytes):
        hdg = hdg_from_graph(g)
        labels = np.arange(g.num_vertices) % k
        stats = dependency_stats(hdg, labels, k)
        cfg = CommConfig()
        naive = plan_layer_comm(stats, feat_bytes, cfg, "naive")
        batched = plan_layer_comm(stats, feat_bytes, cfg, "batched")
        piped = plan_layer_comm(stats, feat_bytes, cfg, "pipelined")
        # Batching preserves bytes, cuts messages; partial aggregation
        # only shrinks bytes.
        assert batched.total_bytes == naive.total_bytes
        assert batched.total_messages <= naive.total_messages
        assert piped.total_bytes <= batched.total_bytes
        # Per-worker modeled time never negative and consistent.
        for plan in (naive, batched, piped):
            assert (plan.per_worker_seconds >= 0).all()

    @given(random_graph(min_n=4, max_n=25), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_traffic_conservation(self, g, k):
        hdg = hdg_from_graph(g)
        labels = np.arange(g.num_vertices) % k
        stats = dependency_stats(hdg, labels, k)
        # A worker's remote edges are its block's leaf entries at halo
        # rows, and every edge lands in exactly one block.
        ranks = [Rank(w, part) for w, part in
                 enumerate(Partition(labels, g.num_vertices).parts)]
        attach_hdg(ranks, hdg, labels)
        halo_entries = [
            np.count_nonzero(~np.isin(r.block.leaf_vertices, r.out_rows))
            for r in ranks]
        np.testing.assert_array_equal(
            stats.remote_edges_per_pair.sum(axis=1), halo_entries)
        assert sum(r.block.leaf_vertices.size for r in ranks) == \
            hdg.leaf_vertices.size


@st.composite
def stored_graph(draw):
    """Graphs the storage format must keep: multi-edges, self-loops,
    isolated vertices, zero edges and typed vertices all occur."""
    n = draw(st.integers(1, 25))
    m = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Endpoints from a prefix of the ids leave the rest isolated; a small
    # prefix forces repeated pairs and self-loops.
    span = draw(st.integers(1, n))
    src = rng.integers(0, span, m)
    dst = rng.integers(0, span, m)
    num_types = draw(st.integers(1, 3))
    types = rng.integers(0, num_types, n)
    names = [f"kind{t}" for t in range(int(types.max()) + 1)]
    return Graph(n, src, dst, vertex_types=types, type_names=names)


def _edge_multiset(graph):
    src, dst = graph.edges()
    order = np.lexsort((dst, src))
    return np.stack([src[order], dst[order]])


class TestStorageProperties:
    @given(stored_graph())
    @example(Graph(3, [], []))
    @example(Graph(6, [0, 0, 1, 2, 2], [1, 1, 1, 0, 0],
                   vertex_types=[0, 1, 1, 0, 2, 0],
                   type_names=["a", "b", "c"]))
    @settings(max_examples=25, deadline=None)
    def test_graph_roundtrip(self, g):
        import os
        import tempfile

        from repro.datasets import Dataset
        from repro.storage import OnDiskDataset, write_ondisk_dataset

        n = g.num_vertices
        dataset = Dataset(
            name="g", graph=g, features=np.zeros((n, 1), dtype=np.float32),
            labels=np.zeros(n, dtype=np.int64), train_mask=np.ones(n, dtype=bool),
            val_mask=np.zeros(n, dtype=bool), test_mask=np.zeros(n, dtype=bool),
        )
        with tempfile.TemporaryDirectory() as tmp:
            root = os.path.join(tmp, "g")
            write_ondisk_dataset(dataset, root, rows_per_shard=8)
            loaded = OnDiskDataset(root).materialize().graph
        assert loaded.fingerprint() == g.fingerprint()
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        np.testing.assert_array_equal(_edge_multiset(loaded), _edge_multiset(g))
        np.testing.assert_array_equal(loaded.vertex_types, g.vertex_types)
        assert loaded.type_names == g.type_names
