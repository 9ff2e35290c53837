"""Tests for the LSTM cell and the non-commutative LSTM aggregator,
including the §5 distributed fallback (no partial aggregation)."""

import numpy as np
import pytest

from repro.core import (
    Aggregator,
    GNNLayer,
    NAUModel,
    SelectionScope,
    hierarchical_aggregate,
)
from repro.core.aggregation import (
    LSTMAggregator,
    SumAggregator,
    get_aggregator,
)
from repro.core.hdg import hdg_from_graph
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer, dependency_stats, plan_layer_comm
from repro.graph import community_graph, hash_partition
from repro.tensor import Adam, LSTMCell, Linear, ReductionPlan, Tensor


class TestLSTMCell:
    def test_step_shapes(self):
        cell = LSTMCell(4, 6)
        h, c = cell(Tensor(np.ones((3, 4))), Tensor(np.zeros((3, 6))),
                    Tensor(np.zeros((3, 6))))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_outputs_bounded(self):
        cell = LSTMCell(4, 4)
        h, _c = cell(Tensor(np.random.default_rng(0).standard_normal((5, 4)) * 10),
                     Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 4))))
        assert np.abs(h.numpy()).max() <= 1.0  # o * tanh(c) is in (-1, 1)

    def test_gradients_flow(self):
        cell = LSTMCell(3, 3)
        x = Tensor(np.random.default_rng(1).standard_normal((2, 3)), requires_grad=True)
        h, c = cell(x, Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        (h.sum() + c.sum()).backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0
        assert cell.w_x.grad is not None

    def test_sequence_state_carries(self):
        cell = LSTMCell(2, 2, rng=np.random.default_rng(2))
        h = c = Tensor(np.zeros((1, 2)))
        h1, c1 = cell(Tensor(np.ones((1, 2))), h, c)
        h2, _ = cell(Tensor(np.ones((1, 2))), h1, c1)
        assert not np.allclose(h1.numpy(), h2.numpy())


def _index_plan(index, dim_size):
    return ReductionPlan.from_index(np.array(index, dtype=np.int64), dim_size)


class TestLSTMAggregator:
    def test_registry(self):
        assert isinstance(get_aggregator("lstm", dim=4), LSTMAggregator)
        with pytest.raises(ValueError):
            get_aggregator("lstm")

    def test_invalid_max_seq(self):
        with pytest.raises(ValueError):
            LSTMAggregator(4, max_seq_len=0)

    def test_output_shape_and_empty_groups(self):
        agg = LSTMAggregator(3, hidden_dim=5)
        values = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        out = agg.sparse(values, _index_plan([0, 0, 2, 2], 4))
        assert out.shape == (4, 5)
        np.testing.assert_allclose(out.numpy()[1], 0.0)  # empty group
        np.testing.assert_allclose(out.numpy()[3], 0.0)

    def test_order_sensitivity(self):
        agg = LSTMAggregator(2, rng=np.random.default_rng(3))
        forward = agg.sparse(
            Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])), _index_plan([0, 0], 1)
        ).numpy()
        backward = agg.sparse(
            Tensor(np.array([[0.0, 1.0], [1.0, 0.0]])), _index_plan([0, 0], 1)
        ).numpy()
        assert not np.allclose(forward, backward)

    def test_truncation(self):
        agg = LSTMAggregator(2, max_seq_len=2, rng=np.random.default_rng(4))
        vals = np.random.default_rng(5).standard_normal((6, 2))
        full = agg.sparse(Tensor(vals), _index_plan([0] * 6, 1)).numpy()
        truncated = agg.sparse(Tensor(vals[:2]), _index_plan([0] * 2, 1)).numpy()
        np.testing.assert_allclose(full, truncated)

    def test_fused_falls_back_to_sparse(self):
        agg = LSTMAggregator(3, rng=np.random.default_rng(6))
        vals = np.random.default_rng(7).standard_normal((5, 3))
        offsets = np.array([0, 2, 5])
        sources = np.array([0, 1, 2, 3, 4])
        a = agg.fused(
            Tensor(vals), ReductionPlan.from_segments(offsets, sources, 5)
        ).numpy()
        b = agg.sparse(Tensor(vals), _index_plan([0, 0, 1, 1, 1], 2)).numpy()
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_gradient_flows_through_hierarchy(self):
        g = community_graph(30, 2, 4, seed=0)
        hdg = hdg_from_graph(g)
        agg = LSTMAggregator(3)
        feats = Tensor(np.random.default_rng(8).standard_normal((30, 3)),
                       requires_grad=True)
        out = hierarchical_aggregate(hdg, feats, [agg], "ha")
        out.sum().backward()
        assert np.abs(feats.grad).sum() > 0


class _LSTMLayer(GNNLayer):
    def __init__(self, in_dim, out_dim):
        super().__init__()
        agg = LSTMAggregator(in_dim, hidden_dim=in_dim, max_seq_len=4)
        self.aggregators = [agg]
        self._agg0 = agg
        self.linear = Linear(in_dim, out_dim)

    def update(self, feats, nbr_feats):
        return self.linear(feats.add(nbr_feats))

    @property
    def output_dim(self):
        return self.linear.weight.shape[1]


class _UDFLayer(GNNLayer):
    def __init__(self, udf, in_dim, out_dim):
        super().__init__(aggregators=[udf])
        self.linear = Linear(in_dim, out_dim)

    def update(self, feats, nbr_feats):
        return self.linear(feats.add(nbr_feats))

    @property
    def output_dim(self):
        return self.linear.weight.shape[1]


class TestNonCommutativeDistributed:
    """§5: LSTM aggregation forbids partial aggregation — the pipelined
    plan must fall back to batched transfer."""

    def test_layer_reported_non_commutative(self):
        ds = load_dataset("reddit", scale="tiny")
        model = NAUModel([_LSTMLayer(ds.feat_dim, ds.num_classes)],
                         SelectionScope.STATIC, name="lstm-gnn")
        assert not model.layers[0].commutative

    def test_distributed_epoch_uses_batched_bytes(self):
        ds = load_dataset("reddit", scale="tiny")
        model = NAUModel([_LSTMLayer(ds.feat_dim, ds.num_classes)],
                         SelectionScope.STATIC, name="lstm-gnn")
        trainer = DistributedTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2),
            pipeline=True,
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        # The fallback ships per-edge features: bytes must match the
        # batched plan, not the (smaller) partial-aggregation plan.  Rows
        # cross in the model's dtype (float32: 4 bytes per element).
        dep = dependency_stats(trainer.hdgs.model_hdg, trainer.labels_part, 2)
        row_bytes = ds.feat_dim * model.parameters()[0].data.itemsize
        assert row_bytes == ds.feat_dim * 4
        batched = plan_layer_comm(dep, row_bytes, trainer.comm_config, "batched")
        assert stats.total_bytes == pytest.approx(batched.total_bytes)
        assert np.isfinite(stats.loss)

    def _comm_mode(self, layer_factory):
        ds = load_dataset("reddit", scale="tiny")
        model = NAUModel([layer_factory(ds.feat_dim, ds.num_classes)],
                         SelectionScope.STATIC, name="custom-gnn")
        trainer = DistributedTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2),
            pipeline=True,
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        return stats.comm_mode

    def test_stats_report_effective_mode_not_requested(self):
        """Regression: comm_mode echoed the *requested* mode even when
        every layer's plan silently fell back to batched transfer."""
        # requested pipelined; LSTM forces batched
        assert self._comm_mode(_LSTMLayer) == "batched"

    def test_commutativity_is_declared_not_guessed_from_the_name(self):
        """Regression: the trainer allow-listed five UDF *names*, so a
        custom commutative UDF fell back to batched — and one that
        merely reused the name "sum" would have been pipelined."""
        class Renamed(SumAggregator):
            name = "my_sum"             # not on any list

        class Undeclared(Renamed):
            commutative = False

        def layer(udf):
            return lambda i, o: _UDFLayer(udf(), i, o)

        assert self._comm_mode(layer(Renamed)) == "pipelined"
        assert self._comm_mode(layer(Undeclared)) == "batched"
        assert not Aggregator.commutative and not Aggregator.linear

    def test_overriding_layer_is_batched_unless_it_declares(self):
        """Regression: a layer with no ``aggregators`` (one that
        overrides ``aggregation()``, e.g. around an LSTM) was assumed
        commutative."""
        class Overriding(_UDFLayer):
            def aggregation(self, feats, hdg, strategy="ha"):
                return hierarchical_aggregate(hdg, feats, self.aggregators,
                                              strategy)

        class Declared(Overriding):
            commutative = True

        def layer(cls):
            return lambda i, o: cls(SumAggregator(), i, o)

        assert self._comm_mode(layer(Overriding)) == "batched"
        assert self._comm_mode(layer(Declared)) == "pipelined"

    def test_lstm_gnn_learns(self):
        ds = load_dataset("reddit", scale="tiny")
        model = NAUModel([_LSTMLayer(ds.feat_dim, ds.num_classes)],
                         SelectionScope.STATIC, name="lstm-gnn")
        from repro.core import FlexGraphEngine

        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        hist = engine.fit(Tensor(ds.features), ds.labels, opt, 4, mask=ds.train_mask)
        assert hist[-1].loss < hist[0].loss
