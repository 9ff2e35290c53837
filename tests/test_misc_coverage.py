"""Cross-cutting coverage: corners of the public surface not exercised
elsewhere."""

import numpy as np
import pytest

from repro.core import (
    ExecutionStrategy,
    FlexGraphEngine,
    NeighborRecord,
    SchemaTree,
    build_hdg,
    hierarchical_aggregate,
)
from repro.core.aggregation import WeightedSumAggregator, get_aggregator
from repro.datasets import load_dataset
from repro.datasets.registry import DATASET_NAMES
from repro.distributed import CommConfig
from repro.graph import Graph, community_graph
from repro.graph.random_walk import random_walks
from repro.models import gcn
from repro.tensor import Tensor


class TestWeightedHierarchicalAggregation:
    def test_weighted_bottom_level_depth3(self):
        """Per-edge weights flow through the *bottom* level of a depth-3
        HDG identically under every strategy."""
        schema = SchemaTree(("t0",))
        records = [
            NeighborRecord(0, (1, 2), 0, weight=0.25),
            NeighborRecord(0, (3,), 0, weight=0.75),
        ]
        hdg = build_hdg(records, schema, np.arange(4), 4, flat=False)
        feats = Tensor(np.arange(8.0).reshape(4, 2))
        aggs = [WeightedSumAggregator(), get_aggregator("sum"), get_aggregator("sum")]
        outs = [
            hierarchical_aggregate(hdg, feats, aggs, s).numpy()
            for s in (ExecutionStrategy.SA, ExecutionStrategy.SA_FA, ExecutionStrategy.HA)
        ]
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-10)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-10)
        # Hand computation: instance a = 0.25*(f1+f2); instance b = 0.75*f3.
        f = feats.numpy()
        expected = 0.25 * (f[1] + f[2]) + 0.75 * f[3]
        np.testing.assert_allclose(outs[0][0], expected, rtol=1e-10)


class TestCommConfig:
    def test_message_time(self):
        cfg = CommConfig(latency=0.001, bandwidth=1000.0)
        assert cfg.message_time(500, messages=2) == pytest.approx(0.002 + 0.5)

    def test_zero_bytes_costs_latency_only(self):
        cfg = CommConfig(latency=0.01, bandwidth=1e9)
        assert cfg.message_time(0, 1) == pytest.approx(0.01)


class TestDatasetRegistry:
    def test_names_constant(self):
        assert set(DATASET_NAMES) == {"reddit", "fb91", "twitter", "imdb"}

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_deterministic_default_seed(self, name):
        a = load_dataset(name, "tiny")
        b = load_dataset(name, "tiny")
        np.testing.assert_array_equal(a.features, b.features)
        assert a.graph.num_edges == b.graph.num_edges


class TestWalkDeterminism:
    def test_same_seed_same_walks(self):
        g = community_graph(60, 2, 6, seed=0)
        w1 = random_walks(g, np.arange(10), 3, 4, np.random.default_rng(9))
        w2 = random_walks(g, np.arange(10), 3, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(w1, w2)

    def test_different_seed_different_walks(self):
        g = community_graph(60, 2, 6, seed=0)
        w1 = random_walks(g, np.arange(10), 3, 4, np.random.default_rng(1))
        w2 = random_walks(g, np.arange(10), 3, 4, np.random.default_rng(2))
        assert not np.array_equal(w1, w2)


class TestEngineEdgeCases:
    def test_isolated_vertices_get_zero_neighborhoods(self):
        # Vertex 3 has no edges at all.
        g = Graph.from_edges(4, [[0, 1], [1, 2], [2, 0]], make_undirected=True)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((4, 5))
        model = gcn(5, 4, 2)
        engine = FlexGraphEngine(model, g)
        out = engine.forward(Tensor(feats))
        assert np.isfinite(out.numpy()).all()

    def test_single_vertex_graph(self):
        g = Graph.from_edges(1, [])
        model = gcn(3, 4, 2)
        engine = FlexGraphEngine(model, g)
        out = engine.forward(Tensor(np.ones((1, 3))))
        assert out.shape == (1, 2)

    def test_three_layer_model(self):
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 8, ds.num_classes, num_layers=3)
        engine = FlexGraphEngine(model, ds.graph)
        out = engine.forward(Tensor(ds.features))
        assert out.shape == (ds.graph.num_vertices, ds.num_classes)

    def test_one_layer_model(self):
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 8, ds.num_classes, num_layers=1)
        engine = FlexGraphEngine(model, ds.graph)
        out = engine.forward(Tensor(ds.features))
        assert out.shape == (ds.graph.num_vertices, ds.num_classes)


class TestSelectionExecutors:
    """The record-based reference executors (Figure 5 fidelity paths)."""

    def test_anchor_set_validation(self):
        from repro.core import select_anchor_set_neighbors

        g = community_graph(10, 2, 3, seed=0)
        with pytest.raises(ValueError):
            select_anchor_set_neighbors(g, 0, 3)

    def test_ring_validation(self):
        from repro.core import select_distance_ring_neighbors

        g = community_graph(10, 2, 3, seed=0)
        with pytest.raises(ValueError):
            select_distance_ring_neighbors(g, 0)

    def test_records_and_bulk_magnn_paths_agree(self):
        """The per-record reference path and the vectorized bulk path
        must compact to the same instance multiset."""
        from repro.core import build_metapath_hdg, select_metapath_neighbors
        from repro.core.selection import schema_for_metapaths
        from repro.graph import Metapath, heterogeneous_graph

        g = heterogeneous_graph(25, 6, 15, seed=3)
        mps = [Metapath((0, 1, 0)), Metapath((0, 2, 0))]
        bulk = build_metapath_hdg(g, mps)
        records = select_metapath_neighbors(g, mps)
        ref = build_hdg(records, schema_for_metapaths(mps),
                        np.arange(g.num_vertices), g.num_vertices, flat=False)
        assert bulk.num_instances == ref.num_instances
        np.testing.assert_array_equal(bulk.instance_offsets, ref.instance_offsets)

    def test_schema_helpers(self):
        from repro.core import schema_for_rings
        from repro.core.selection import schema_for_metapaths
        from repro.graph import Metapath

        rings = schema_for_rings(3)
        assert rings.leaf_types == ("ring_1", "ring_2", "ring_3")
        mps = schema_for_metapaths([Metapath((0, 1), "x"), Metapath((1, 0))])
        assert mps.leaf_types == ("x", "mp1")


class TestEngineConvenience:
    def test_predict_and_embed(self):
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        preds = engine.predict(Tensor(ds.features))
        emb = engine.embed(Tensor(ds.features))
        assert preds.shape == (ds.graph.num_vertices,)
        assert preds.min() >= 0 and preds.max() < ds.num_classes
        assert emb.shape == (ds.graph.num_vertices, ds.num_classes)
        np.testing.assert_array_equal(preds, emb.argmax(axis=1))
        assert all(p.grad is None for p in model.parameters())


class TestLargestComponent:
    def test_subgraph_restriction_workflow(self):
        g = Graph.from_edges(6, [[0, 1], [1, 2], [4, 5]], make_undirected=True)
        sub, original = g.subgraph(np.array([0, 1, 2]))  # the giant component
        assert sub.num_vertices == 3
        np.testing.assert_array_equal(original, [0, 1, 2])
