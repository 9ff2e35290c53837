"""Tests for the GAT model."""

import numpy as np
import pytest

from repro.core import FlexGraphEngine
from repro.datasets import load_dataset
from repro.models import gat
from repro.tensor import Adam, Tensor


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
        from repro.core.hdg import hdg_from_graph
        from repro.core.aggregation import AttentionAggregator

        hdg = hdg_from_graph(ds.graph)
        feats = Tensor(np.ones((ds.graph.num_vertices, 4)))
        attn = AttentionAggregator(4)
        out = attn.fused(
            feats, hdg.plan(1, feats.shape[0])).numpy()
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
