"""Tests for the extended Gremlin-style GraphQuery and the GAT model."""

import numpy as np
import pytest

from repro.baselines import GraphQuery
from repro.core import FlexGraphEngine
from repro.datasets import load_dataset
from repro.graph import Graph, heterogeneous_graph
from repro.models import gat
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def hgraph():
    return heterogeneous_graph(30, 8, 20, seed=0)


class TestGraphQueryTraversal:
    def test_has_type(self, hgraph):
        movies = GraphQuery(hgraph).v(np.arange(hgraph.num_vertices)).has_type(0).values()
        np.testing.assert_array_equal(movies, hgraph.vertices_of_type(0))

    def test_out_expands_with_duplicates(self):
        g = Graph.from_edges(3, [[0, 1], [0, 2], [1, 2]])
        out = GraphQuery(g).v(np.array([0, 1])).out().values()
        assert sorted(out.tolist()) == [1, 2, 2]

    def test_out_on_sinks_is_empty(self):
        g = Graph.from_edges(2, [[0, 1]])
        assert GraphQuery(g).v(np.array([1])).out().count() == 0

    def test_dedup(self):
        g = Graph.from_edges(3, [[0, 2], [1, 2]])
        q = GraphQuery(g).v(np.array([0, 1])).out().dedup()
        np.testing.assert_array_equal(q.values(), [2])

    def test_limit(self, hgraph):
        q = GraphQuery(hgraph).v(np.arange(10)).limit(3)
        assert q.count() == 3

    def test_chained_metapath_style_query(self, hgraph):
        """Movies -> their directors -> those directors' movies: the
        query-language route to 2-hop typed neighborhoods."""
        q = (
            GraphQuery(hgraph)
            .v(np.arange(hgraph.num_vertices))
            .has_type(0)
            .out()
            .has_type(1)
            .out()
            .has_type(0)
            .dedup()
        )
        result = q.values()
        assert result.size > 0
        np.testing.assert_array_equal(hgraph.vertex_types[result], 0)

    def test_values_before_v_raises(self, hgraph):
        with pytest.raises(RuntimeError):
            GraphQuery(hgraph).values()

    def test_traversal_before_v_raises(self, hgraph):
        for step in ("has_type", "out", "dedup", "limit"):
            with pytest.raises(RuntimeError):
                getattr(GraphQuery(hgraph), step)(0) if step in ("has_type", "limit") \
                    else getattr(GraphQuery(hgraph), step)()


class TestGAT:
    @pytest.fixture(scope="class")
    def ds(self):
        return load_dataset("reddit", scale="tiny")

    def test_factory(self):
        model = gat(8, 16, 3)
        assert model.category == "DNFA"
        assert model.num_layers == 2
        with pytest.raises(ValueError):
            gat(8, 16, 3, num_layers=0)

    def test_forward_shape(self, ds):
        model = gat(ds.feat_dim, 8, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        out = engine.forward(Tensor(ds.features))
        assert out.shape == (ds.graph.num_vertices, ds.num_classes)

    def test_learns(self, ds):
        model = gat(ds.feat_dim, 16, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        hist = engine.fit(Tensor(ds.features), ds.labels,
                          Adam(model.parameters(), 0.01), 6, mask=ds.train_mask)
        assert hist[-1].loss < hist[0].loss

    def test_attention_params_registered(self):
        model = gat(8, 16, 3)
        names = [n for n, _ in model.named_parameters()]
        assert any("score_vector" in n for n in names)

    def test_attention_neighborhood_is_convex(self, ds):
        """Attention outputs lie in the convex hull of neighbor features:
        aggregate all-ones features -> exactly ones wherever a vertex has
        neighbors."""
        from repro.core import hdg_from_graph
        from repro.core.aggregation import AttentionAggregator

        hdg = hdg_from_graph(ds.graph)
        feats = Tensor(np.ones((ds.graph.num_vertices, 4)))
        attn = AttentionAggregator(4)
        out = attn.fused(
            feats, hdg.plan(1, "segments", feats.shape[0])).numpy()
        has_nbrs = np.diff(hdg.leaf_offsets) > 0
        np.testing.assert_allclose(out[has_nbrs], 1.0, rtol=1e-9)
        np.testing.assert_allclose(out[~has_nbrs], 0.0)

    def test_strategies_agree(self, ds):
        model = gat(ds.feat_dim, 8, ds.num_classes, seed=4)
        outs = []
        for strategy in ("sa", "ha"):
            engine = FlexGraphEngine(model, ds.graph, strategy=strategy)
            outs.append(engine.forward(Tensor(ds.features)).numpy())
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-8)
