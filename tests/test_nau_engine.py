"""Tests for the NAU abstraction and the single-machine execution engine:
layer interfaces, HDG caching scopes, stage timing, checkpointing."""

import multiprocessing

import numpy as np
import pytest

from repro.core import (
    FlexGraphEngine,
    GNNLayer,
    MiniBatchTrainer,
    NAUModel,
    SelectionScope,
)
from repro.core.hdg import hdg_from_graph
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer, MultiprocessTrainer
from repro.graph import hash_partition
from repro.models import gcn
from repro.serve import InferenceSession
from repro.tensor import Adam, Linear, Tensor


class CountingModel(NAUModel):
    """GCN-like model that counts NeighborSelection invocations."""

    def __init__(self, in_dim, out_dim, scope):
        class L(GNNLayer):
            def __init__(self):
                super().__init__(aggregators=["sum"])
                self.linear = Linear(in_dim, out_dim)

            def update(self, feats, nbr_feats):
                return self.linear(feats.add(nbr_feats))

            output_dim = out_dim

        super().__init__([L()], scope, name="counting")
        self.selection_calls = 0

    def neighbor_selection(self, graph, rng):
        self.selection_calls += 1
        return hdg_from_graph(graph)


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestSelectionScopes:
    def test_static_scope_builds_once(self, ds):
        model = CountingModel(ds.feat_dim, ds.num_classes, SelectionScope.STATIC)
        eng = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)
        for epoch in range(3):
            eng.forward(feats, epoch)
        assert model.selection_calls == 1

    def test_per_epoch_scope_rebuilds_each_epoch(self, ds):
        model = CountingModel(ds.feat_dim, ds.num_classes, SelectionScope.PER_EPOCH)
        eng = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)
        for epoch in range(3):
            eng.forward(feats, epoch)
        assert model.selection_calls == 3

    def test_per_epoch_scope_shared_within_epoch(self, ds):
        model = CountingModel(ds.feat_dim, ds.num_classes, SelectionScope.PER_EPOCH)
        eng = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)
        eng.forward(feats, 0)
        eng.forward(feats, 0)  # same epoch: reuse
        assert model.selection_calls == 1

    def test_every_layer_shares_the_model_level_hdg(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        assert eng.hdg_for_layer(0) is eng.hdg_for_layer(1, epoch=3)
        with pytest.raises(IndexError):
            eng.hdg_for_layer(2)
        assert not hasattr(GNNLayer, "neighbor_selection")

    def test_invalidate_forces_rebuild(self, ds):
        model = CountingModel(ds.feat_dim, ds.num_classes, SelectionScope.STATIC)
        eng = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)
        eng.forward(feats, 0)
        eng.invalidate_hdgs()
        eng.forward(feats, 1)
        assert model.selection_calls == 2

class ReversedRootsModel(NAUModel):
    """A GCN whose selection lists every root, with its own CSC
    neighborhood, in reverse id order."""

    def __init__(self, in_dim, out_dim):
        super().__init__(gcn(in_dim, 8, out_dim).layers, name="reversed-roots")

    def neighbor_selection(self, graph, rng):
        hdg = hdg_from_graph(graph)
        return hdg.restrict_to_roots(np.arange(hdg.num_roots)[::-1])


class TestRootLayout:
    """Blocks, rank slices and partitions read a root's position as its
    vertex id, so every runtime refuses, by the model's name, an HDG
    whose roots are not every vertex in id order."""

    RUNTIMES = {
        "engine": lambda model, ds, part: FlexGraphEngine(model, ds.graph),
        "minibatch": lambda model, ds, part: MiniBatchTrainer(
            model, ds.graph, batch_size=32, fanouts=[3, 3]),
        "simulated": lambda model, ds, part: DistributedTrainer(
            model, ds.graph, part),
        "process": lambda model, ds, part: MultiprocessTrainer(
            model, ds.graph, part),
    }

    @pytest.mark.parametrize("runtime", sorted(RUNTIMES))
    def test_trainer_refuses_reversed_roots(self, ds, runtime):
        model = ReversedRootsModel(ds.feat_dim, ds.num_classes)
        part = hash_partition(ds.graph.num_vertices, 2)
        trainer = self.RUNTIMES[runtime](model, ds, part)
        try:
            with pytest.raises(ValueError, match="reversed-roots.*id order"):
                trainer.train_epoch(Tensor(ds.features), ds.labels,
                                    Adam(model.parameters(), 0.01),
                                    ds.train_mask)
        finally:
            if runtime == "process":
                trainer.close()

    def test_process_trainer_refuses_before_spawning(self, ds):
        model = ReversedRootsModel(ds.feat_dim, ds.num_classes)
        part = hash_partition(ds.graph.num_vertices, 2)
        trainer = MultiprocessTrainer(model, ds.graph, part)
        try:
            with pytest.raises(ValueError, match="reversed-roots.*id order"):
                trainer.train_epoch(Tensor(ds.features), ds.labels,
                                    Adam(model.parameters(), 0.01),
                                    ds.train_mask)
            assert multiprocessing.active_children() == []
        finally:
            trainer.close()

    def test_session_refuses_reversed_roots(self, ds):
        model = ReversedRootsModel(ds.feat_dim, ds.num_classes)
        with pytest.raises(ValueError, match="reversed-roots.*id order"):
            InferenceSession(model, ds.graph, ds.features)

    def test_pinned_hdg_is_checked(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        hdg = hdg_from_graph(ds.graph)
        reversed_hdg = hdg.restrict_to_roots(np.arange(hdg.num_roots)[::-1])
        with pytest.raises(ValueError, match="id order"):
            FlexGraphEngine(model, ds.graph).hdgs.pin(reversed_hdg)
        with pytest.raises(ValueError, match="id order"):
            InferenceSession(model, ds.graph, ds.features, hdg=reversed_hdg)


class TestEngineTraining:
    def test_stage_times_populated(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        stats = eng.train_epoch(Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01), ds.train_mask)
        assert stats.times.aggregation > 0
        assert stats.times.update > 0
        assert stats.times.backward > 0

    def test_loss_decreases_over_epochs(self, ds):
        model = gcn(ds.feat_dim, 16, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        history = eng.fit(Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
                          num_epochs=8, mask=ds.train_mask)
        assert history[-1].loss < history[0].loss

    def test_evaluate_does_not_touch_grads(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        acc = eng.evaluate(Tensor(ds.features), ds.labels, ds.test_mask)
        assert 0.0 <= acc <= 1.0
        assert all(p.grad is None for p in model.parameters())

    def test_no_grad_helpers_restore_prior_mode(self, ds):
        # Regression: predict/embed/evaluate unconditionally called
        # model.train() afterwards, clobbering a caller's eval mode.
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)

        model.eval()
        eng.predict(feats)
        assert model.training is False
        eng.embed(feats)
        assert model.training is False
        eng.evaluate(feats, ds.labels, ds.test_mask)
        assert model.training is False

        model.train()
        eng.predict(feats)
        assert model.training is True

    def test_forward_strategy_configurable(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=1)
        outs = []
        for strategy in ("sa", "sa+fa", "ha"):
            eng = FlexGraphEngine(model, ds.graph, strategy=strategy)
            outs.append(eng.forward(Tensor(ds.features)).numpy())
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-8)
        np.testing.assert_allclose(outs[0], outs[2], rtol=1e-8)


class TestNAUModelValidation:
    def test_empty_layers_raise(self):
        with pytest.raises(ValueError):
            NAUModel([])

    def test_model_forward_with_explicit_hdgs(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        hdg = hdg_from_graph(ds.graph)
        out = model.forward(Tensor(ds.features), hdg)
        assert out.shape == (ds.graph.num_vertices, ds.num_classes)

    def test_layer_without_aggregators_raises(self, ds):
        layer = GNNLayer()
        with pytest.raises(NotImplementedError):
            layer.aggregation(Tensor(ds.features), hdg_from_graph(ds.graph))

    def test_base_update_not_implemented(self):
        with pytest.raises(NotImplementedError):
            GNNLayer().update(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))))
