"""Tests for per-type feature projection on heterogeneous graphs."""

import numpy as np
import pytest

from repro.core import FlexGraphEngine, TypeProjection
from repro.datasets import load_dataset
from repro.models import magnn
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def imdb():
    return load_dataset("imdb", scale="tiny")


class TestTypeProjection:
    def test_shapes_and_params(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 12)
        out = tp(Tensor(imdb.features))
        assert out.shape == (imdb.graph.num_vertices, 12)
        # 3 types x (weight + bias)
        assert len(tp.parameters()) == 6

    def test_each_type_uses_its_own_projection(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 4,
                            rng=np.random.default_rng(0))
        same_input = Tensor(np.tile(np.ones(imdb.feat_dim), (imdb.graph.num_vertices, 1)))
        out = tp(same_input).numpy()
        t0 = imdb.graph.vertices_of_type(0)[0]
        t1 = imdb.graph.vertices_of_type(1)[0]
        assert not np.allclose(out[t0], out[t1])
        # Within a type, identical inputs give identical outputs.
        t0b = imdb.graph.vertices_of_type(0)[1]
        np.testing.assert_allclose(out[t0], out[t0b])

    def test_gradients_reach_all_projections(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 4)
        out = tp(Tensor(imdb.features))
        out.sum().backward()
        for layer in tp.projections:
            assert layer.weight.grad is not None

    def test_row_count_mismatch_raises(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 4)
        with pytest.raises(ValueError):
            tp(Tensor(np.ones((3, imdb.feat_dim))))

    def test_composes_with_magnn(self, imdb):
        """The real heterogeneous pipeline: project per type, then run
        the INHA model on the shared space."""
        from repro.tensor import cross_entropy

        proj = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 16,
                              rng=np.random.default_rng(1))
        model = magnn(16, 16, imdb.num_classes)
        engine = FlexGraphEngine(model, imdb.graph)
        params = proj.parameters() + model.parameters()
        opt = Adam(params, 0.01)
        feats = Tensor(imdb.features)
        losses = []
        for epoch in range(4):
            hidden = proj(feats)
            logits = engine.forward(hidden, epoch)
            loss = cross_entropy(logits, imdb.labels, imdb.train_mask)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
