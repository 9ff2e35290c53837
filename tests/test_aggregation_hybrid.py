"""Tests for aggregation UDFs and the hybrid execution strategies (§4.2).

The central invariant: SA, SA+FA and HA are *execution strategies* for
the same mathematical reduction, so all three must agree numerically on
every HDG and every aggregator combination.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    Aggregator,
    ExecutionStrategy,
    FlexGraphEngine,
    MiniBatchTrainer,
    NeighborRecord,
    SchemaTree,
    build_hdg,
    hierarchical_aggregate,
)
from repro.core.aggregation import (
    AttentionAggregator,
    MaxAggregator,
    MeanAggregator,
    MinAggregator,
    SumAggregator,
    WeightedSumAggregator,
    get_aggregator,
)
from repro.core.hdg import hdg_from_graph
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import (
    Metapath,
    community_graph,
    hash_partition,
    heterogeneous_graph,
)
from repro.core.selection import build_metapath_hdg
from repro.models import gcn
from repro.tensor import Adam, ReductionPlan, Tensor, scatter_add

STRATEGIES = [ExecutionStrategy.SA, ExecutionStrategy.SA_FA, ExecutionStrategy.HA]


@pytest.fixture(scope="module")
def flat_hdg():
    g = community_graph(80, 2, 8, seed=0)
    return hdg_from_graph(g), g


@pytest.fixture(scope="module")
def hier_hdg():
    g = heterogeneous_graph(40, 10, 25, seed=1)
    mps = [Metapath((0, 1, 0), "MDM"), Metapath((0, 2, 0), "MAM")]
    return build_metapath_hdg(g, mps), g


class TestAggregatorRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("sum", SumAggregator), ("mean", MeanAggregator),
        ("max", MaxAggregator), ("min", MinAggregator),
        ("weighted_sum", WeightedSumAggregator),
    ])
    def test_builtin_lookup(self, name, cls):
        assert isinstance(get_aggregator(name), cls)

    def test_attention_needs_dim(self):
        with pytest.raises(ValueError):
            get_aggregator("attention")
        assert isinstance(get_aggregator("attention", dim=4), AttentionAggregator)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_aggregator("median")

    def test_instance_passthrough(self):
        agg = SumAggregator()
        assert get_aggregator(agg) is agg

    def test_weighted_sum_requires_weights(self):
        agg = WeightedSumAggregator()
        with pytest.raises(ValueError):
            agg.sparse(Tensor(np.ones((2, 2))),
                       ReductionPlan.from_index(np.array([0, 0]), 1))
        with pytest.raises(ValueError):
            agg.fused(Tensor(np.ones((2, 2))),
                      ReductionPlan.from_segments(np.array([0, 2]), None, 2))

    def test_aggregators_not_callable_directly(self):
        with pytest.raises(TypeError):
            SumAggregator()(Tensor(np.ones((2, 2))))


class GuideSum(Aggregator):
    """The custom UDF of docs/nau_programming_guide.md §2, as printed."""

    name = "guide_sum"
    supports_fused = False        # only the scatter form is written
    supports_dense = False

    def sparse(self, values, plan, weights=None):
        return scatter_add(values, plan=plan)


class TestCustomAggregator:
    """The documented extension point runs in every trainer, under every
    strategy, and amortizes its structure like the built-ins do."""

    @pytest.fixture(scope="class")
    def ds(self):
        return load_dataset("reddit", scale="tiny", seed=0)

    @staticmethod
    def _train(kind, aggregator, ds, strategy):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0,
                    aggregator=aggregator)
        if kind == "engine":
            trainer = FlexGraphEngine(model, ds.graph, strategy, seed=0)
        elif kind == "minibatch":
            trainer = MiniBatchTrainer(model, ds.graph, batch_size=128,
                                       fanouts=[4, 4], strategy=strategy,
                                       seed=0)
        else:
            trainer = DistributedTrainer(
                model, ds.graph, hash_partition(ds.graph.num_vertices, 2),
                strategy, seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        losses, builds = [], []
        for epoch in range(3):
            before = obs.counter("plan.cache.build").total
            stats = trainer.train_epoch(Tensor(ds.features), ds.labels, opt,
                                        ds.train_mask, epoch)
            losses.append(stats.loss)
            builds.append(obs.counter("plan.cache.build").total - before)
        return losses, builds

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("kind", ["engine", "minibatch", "distributed"])
    def test_guide_udf_trains_like_sum(self, ds, kind, strategy):
        losses, builds = self._train(kind, GuideSum(), ds, strategy)
        reference, _ = self._train(kind, "sum", ds, strategy)
        # The built-in sum is linear, so it may project before reducing;
        # the UDF reduces first.  Only each neighbor sum's order changes:
        # in float32, at most (max in-degree) * eps32 relative.
        max_degree = int(np.diff(ds.graph.csc[0]).max())
        bound = max_degree * float(np.finfo(np.float32).eps)
        np.testing.assert_allclose(losses, reference, rtol=bound, atol=0)
        assert builds[0] > 0
        if kind != "minibatch":      # a sampled batch's topology is one-shot
            assert builds[1:] == [0, 0], builds

    def test_default_fused_gathers_then_scatters(self):
        # A UDF that only writes `sparse` still answers a fused-layout call.
        rng = np.random.default_rng(0)
        values = Tensor(rng.standard_normal((6, 3)))
        plan = ReductionPlan.from_segments(
            np.array([0, 2, 2, 5]), np.array([5, 0, 1, 1, 3]), 6)
        out = GuideSum().fused(values, plan)
        ref = SumAggregator().fused(values, plan)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)


class TestStrategyEquivalenceFlat:
    @pytest.mark.parametrize("agg_name", ["sum", "mean", "max", "min"])
    def test_all_strategies_agree(self, flat_hdg, agg_name):
        hdg, g = flat_hdg
        feats = Tensor(np.random.default_rng(0).standard_normal((g.num_vertices, 6)))
        results = [
            hierarchical_aggregate(hdg, feats, [get_aggregator(agg_name)], s).numpy()
            for s in STRATEGIES
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-9)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-9)

    @pytest.mark.parametrize("name", ["gcn", "gin", "graphsage"])
    def test_sa_is_ha_over_materialized_rows_bitwise(self, flat_hdg, name):
        """SA reduces the rows it gathered with the same kernel HA runs
        over the gathering plan, so the two layer Aggregations agree bit
        for bit, not only within a tolerance."""
        from repro import models

        hdg, g = flat_hdg
        layer = getattr(models, name)(6, 8, 3, seed=0).layers[0]
        feats = Tensor(np.random.default_rng(0).standard_normal(
            (g.num_vertices, 6)).astype(np.float32))
        sa, ha = (layer.aggregation(feats, hdg, s).data
                  for s in (ExecutionStrategy.SA, ExecutionStrategy.HA))
        assert sa.dtype == np.float32
        np.testing.assert_array_equal(sa.view(np.uint32), ha.view(np.uint32))

    def test_weighted_sum_strategies_agree(self, flat_hdg):
        hdg, g = flat_hdg
        rng = np.random.default_rng(1)
        hdg.leaf_weights = rng.random(hdg.leaf_vertices.size)
        try:
            feats = Tensor(rng.standard_normal((g.num_vertices, 4)))
            results = [
                hierarchical_aggregate(hdg, feats, [WeightedSumAggregator()], s).numpy()
                for s in STRATEGIES
            ]
            np.testing.assert_allclose(results[0], results[1], rtol=1e-9)
            np.testing.assert_allclose(results[0], results[2], rtol=1e-9)
        finally:
            hdg.leaf_weights = None

    def test_sum_matches_manual(self, flat_hdg):
        hdg, g = flat_hdg
        feats = np.random.default_rng(2).standard_normal((g.num_vertices, 3))
        out = hierarchical_aggregate(hdg, Tensor(feats), [SumAggregator()]).numpy()
        v = 7
        expected = feats[g.in_neighbors(v)].sum(axis=0)
        np.testing.assert_allclose(out[v], expected, rtol=1e-9)

    def test_wrong_aggregator_count_raises(self, flat_hdg):
        hdg, g = flat_hdg
        feats = Tensor(np.ones((g.num_vertices, 2)))
        with pytest.raises(ValueError):
            hierarchical_aggregate(hdg, feats, [SumAggregator(), SumAggregator()])

    def test_feature_matrix_too_small_raises(self, flat_hdg):
        hdg, _g = flat_hdg
        with pytest.raises(ValueError):
            hierarchical_aggregate(hdg, Tensor(np.ones((3, 2))), [SumAggregator()])


class TestStrategyEquivalenceHierarchical:
    @pytest.mark.parametrize("aggs", [
        ["mean", "mean", "mean"],
        ["sum", "sum", "sum"],
        ["mean", "sum", "max"],
        ["max", "mean", "min"],
    ])
    def test_all_strategies_agree(self, hier_hdg, aggs):
        hdg, g = hier_hdg
        feats = Tensor(np.random.default_rng(3).standard_normal((g.num_vertices, 5)))
        results = [
            hierarchical_aggregate(
                hdg, feats, [get_aggregator(a) for a in aggs], s
            ).numpy()
            for s in STRATEGIES
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-8, atol=1e-10)

    def test_attention_strategies_agree(self, hier_hdg):
        hdg, g = hier_hdg
        rng = np.random.default_rng(4)
        feats = Tensor(rng.standard_normal((g.num_vertices, 5)))
        attn = AttentionAggregator(5, rng=rng)
        results = [
            hierarchical_aggregate(
                hdg, feats, [MeanAggregator(), attn, MeanAggregator()], s
            ).numpy()
            for s in STRATEGIES
        ]
        np.testing.assert_allclose(results[0], results[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(results[0], results[2], rtol=1e-8, atol=1e-10)

    def test_manual_hierarchical_mean(self):
        """Hand-computed 2-instance example checks the level semantics."""
        schema = SchemaTree(("t0", "t1"))
        records = [
            NeighborRecord(0, (1, 2), 0),   # instance a, type 0
            NeighborRecord(0, (3,), 1),     # instance b, type 1
        ]
        hdg = build_hdg(records, schema, np.arange(4), 4)
        feats = np.array([[0.0], [2.0], [4.0], [10.0]])
        out = hierarchical_aggregate(
            hdg, Tensor(feats), [MeanAggregator()] * 3, ExecutionStrategy.HA
        ).numpy()
        # instance a = mean(2,4)=3 -> slot t0 = 3; instance b = 10 -> slot t1 = 10
        # root 0 = mean(3, 10) = 6.5; other roots = 0.
        np.testing.assert_allclose(out[0], [6.5])
        np.testing.assert_allclose(out[1:], np.zeros((3, 1)))

    def test_gradients_flow_through_all_strategies(self, hier_hdg):
        hdg, g = hier_hdg
        rng = np.random.default_rng(5)
        data = rng.standard_normal((g.num_vertices, 4))
        grads = []
        for s in STRATEGIES:
            feats = Tensor(data.copy(), requires_grad=True)
            out = hierarchical_aggregate(
                hdg, feats, [MeanAggregator(), MeanAggregator(), SumAggregator()], s
            )
            out.sum().backward()
            grads.append(feats.grad.copy())
        np.testing.assert_allclose(grads[0], grads[1], rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(grads[0], grads[2], rtol=1e-8, atol=1e-10)

    def test_needs_three_aggregators(self, hier_hdg):
        hdg, g = hier_hdg
        with pytest.raises(ValueError):
            hierarchical_aggregate(hdg, Tensor(np.ones((g.num_vertices, 2))), [SumAggregator()])

    def test_strategy_parse(self):
        assert ExecutionStrategy.parse("ha") is ExecutionStrategy.HA
        assert ExecutionStrategy.parse("sa+fa") is ExecutionStrategy.SA_FA
        assert ExecutionStrategy.parse(ExecutionStrategy.SA) is ExecutionStrategy.SA
        with pytest.raises(ValueError):
            ExecutionStrategy.parse("turbo")


class TestDenseBackend:
    def test_dense_sum_matches_sparse(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 3, 5)))
        dense = SumAggregator().dense(x).numpy()
        np.testing.assert_allclose(dense, x.numpy().sum(axis=1), rtol=1e-12)

    def test_dense_min_via_negated_max(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((4, 3, 5)))
        np.testing.assert_allclose(
            MinAggregator().dense(x).numpy(), x.numpy().min(axis=1), rtol=1e-12
        )

    def test_attention_dense_rows_are_convex_combinations(self):
        rng = np.random.default_rng(8)
        attn = AttentionAggregator(2, rng=rng)
        x = np.zeros((1, 3, 2))
        x[0, :, 0] = [1.0, 2.0, 3.0]
        out = attn.dense(Tensor(x)).numpy()
        assert 1.0 <= out[0, 0] <= 3.0
