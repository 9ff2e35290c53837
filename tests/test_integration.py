"""Integration tests crossing module boundaries: full training runs,
workload balancing end-to-end, distributed-vs-serial equivalence, and the
qualitative claims the paper's evaluation rests on."""

import numpy as np
import pytest

from repro.baselines import ENGINES, FlexGraphAdapter, PyTorchEngine
from repro.core import (
    ADBBalancer,
    FlexGraphEngine,
    metrics_from_hdg,
)
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import balance_factor, hash_partition
from repro.models import gcn, magnn, pinsage
from repro.tensor import (
    Adam,
    Tensor,
    materialized_bytes,
    reset_materialized_bytes,
)


@pytest.fixture(scope="module")
def reddit_small():
    return load_dataset("reddit", scale="small")


class TestTrainingQuality:
    def test_gcn_beats_majority_baseline(self, reddit_small):
        ds = reddit_small
        model = gcn(ds.feat_dim, 32, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        eng.fit(Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
                num_epochs=15, mask=ds.train_mask)
        acc = eng.evaluate(Tensor(ds.features), ds.labels, ds.test_mask)
        majority = np.bincount(ds.labels[ds.test_mask]).max() / ds.test_mask.sum()
        assert acc > majority + 0.1

    def test_training_is_deterministic_given_seeds(self, reddit_small):
        ds = reddit_small
        losses = []
        for _ in range(2):
            model = gcn(ds.feat_dim, 16, ds.num_classes, seed=42)
            eng = FlexGraphEngine(model, ds.graph, seed=42)
            hist = eng.fit(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), 3, mask=ds.train_mask)
            losses.append([h.loss for h in hist])
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-12)


class TestPaperClaims:
    """Qualitative shapes the paper's evaluation asserts."""

    def test_fa_avoids_materialization_sa_does_not(self, reddit_small):
        """§4.2: sparse ops materialize per-edge messages; fusion does not."""
        ds = reddit_small
        model = gcn(ds.feat_dim, 16, ds.num_classes)
        feats = Tensor(ds.features)
        eng_sa = FlexGraphEngine(model, ds.graph, strategy="sa")
        reset_materialized_bytes()
        eng_sa.forward(feats)
        sa_bytes = materialized_bytes()
        eng_ha = FlexGraphEngine(model, ds.graph, strategy="ha")
        reset_materialized_bytes()
        eng_ha.forward(feats)
        ha_bytes = materialized_bytes()
        assert sa_bytes > 0
        assert ha_bytes == 0

    def test_fusion_faster_than_scatter_at_scale(self, reddit_small):
        """Figure 14's FA gain, at reduced scale."""
        import time

        ds = reddit_small
        model = gcn(ds.feat_dim, 32, ds.num_classes)
        feats = Tensor(ds.features)
        times = {}
        for strategy in ("sa", "ha"):
            eng = FlexGraphEngine(model, ds.graph, strategy=strategy)
            eng.forward(feats)  # warm (HDG build)
            t0 = time.perf_counter()
            for _ in range(3):
                eng.forward(feats)
            times[strategy] = time.perf_counter() - t0
        assert times["ha"] < times["sa"]

    def test_flexgraph_fastest_engine_on_gcn(self, reddit_small):
        ds = reddit_small
        seconds = {}
        for name in ("pytorch", "dgl", "flexgraph"):
            eng = ENGINES[name](ds, "gcn", hidden_dim=16)
            eng.run_epoch(0)  # warm
            seconds[name] = eng.run_epoch(1).seconds
        assert seconds["flexgraph"] <= min(seconds.values()) * 1.05

    def test_walk_simulation_dominates_baseline_pinsage(self, reddit_small):
        """§7.1: >95%% of PyTorch/DGL PinSage time goes to walk simulation.
        We check the weaker, stable form: the baseline spends far longer
        than FlexGraph's graph-engine walks."""
        import time

        ds = reddit_small
        flex = FlexGraphAdapter(ds, "pinsage", hidden_dim=16)
        base = PyTorchEngine(ds, "pinsage", hidden_dim=16)
        f = min(flex.run_epoch(e).seconds for e in range(3))
        b = min(base.run_epoch(e).seconds for e in range(3))
        # The full ratio (§7.1 reports >10x) needs bench-scale graphs; at
        # test scale the ordering with margin is the stable signal.
        assert b > 1.3 * f

    def test_only_flexgraph_and_pytorch_express_magnn(self, reddit_small):
        ds = reddit_small
        statuses = {
            name: ENGINES[name](ds, "magnn", hidden_dim=8,
                                max_instances_per_root=5).run_epoch().status
            for name in ("dgl", "distdgl", "euler")
        }
        assert set(statuses.values()) == {"unsupported"}

    def test_hdg_memory_magnn_larger_than_pinsage(self, reddit_small):
        """Table 5: MAGNN HDGs cost more than PinSage HDGs (multi-vertex
        instances)."""
        ds = reddit_small
        rng = np.random.default_rng(0)
        ps = pinsage(ds.feat_dim, 8, ds.num_classes)
        mg = magnn(ds.feat_dim, 8, ds.num_classes, max_instances_per_root=20)
        hdg_ps = ps.neighbor_selection(ds.graph, rng)
        hdg_mg = mg.neighbor_selection(ds.graph, rng)
        assert hdg_mg.nbytes > hdg_ps.nbytes


class TestBalancerIntegration:
    def test_adb_improves_aggregation_balance_on_power_law(self):
        """Figure 15a's mechanism: static partitions are cost-skewed on
        power-law graphs; ADB migration reduces the skew."""
        ds = load_dataset("twitter", scale="tiny")
        model = gcn(ds.feat_dim, 16, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        hdg = eng.hdg_for_layer(0)
        metrics = metrics_from_hdg(hdg, ds.feat_dim)
        k = 4
        labels = np.minimum(np.arange(ds.graph.num_vertices) * k // ds.graph.num_vertices, k - 1)
        balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=0)
        costs = balancer.per_root_costs(metrics)
        before = balance_factor(costs, labels, k)
        new_labels, plan = balancer.rebalance(hdg, labels, k, metrics)
        after = balance_factor(costs, new_labels, k)
        assert after <= before

    def test_balanced_partition_not_slower_distributed(self):
        ds = load_dataset("twitter", scale="tiny")
        feats = Tensor(ds.features)
        k = 4
        skewed = np.minimum(np.arange(ds.graph.num_vertices) * k // ds.graph.num_vertices, k - 1)
        model = gcn(ds.feat_dim, 16, ds.num_classes, seed=0)
        trainer = DistributedTrainer(model, ds.graph, skewed)
        trainer.train_epoch(feats, ds.labels, Adam(model.parameters(), 0.01), ds.train_mask)
        t_skew = trainer.aggregation_epoch_time(feats)

        hdg = trainer.hdgs.model_hdg
        metrics = metrics_from_hdg(hdg, ds.feat_dim)
        balancer = ADBBalancer(num_plans=5, threshold=1.02, seed=0)
        better, _plan = balancer.rebalance(hdg, skewed, k, metrics)
        model2 = gcn(ds.feat_dim, 16, ds.num_classes, seed=0)
        trainer2 = DistributedTrainer(model2, ds.graph, better)
        trainer2.train_epoch(feats, ds.labels, Adam(model2.parameters(), 0.01), ds.train_mask)
        t_bal = trainer2.aggregation_epoch_time(feats)
        # Timing noise exists; balanced should not be meaningfully slower.
        assert t_bal <= t_skew * 1.5


class TestDistributedEquivalence:
    @pytest.mark.parametrize("k", [2, 4])
    def test_forward_semantics_independent_of_k(self, reddit_small, k):
        ds = reddit_small
        feats = Tensor(ds.features)
        model = gcn(ds.feat_dim, 16, ds.num_classes, seed=3)
        eng = FlexGraphEngine(model, ds.graph)
        expected = eng.forward(feats).numpy()

        model_k = gcn(ds.feat_dim, 16, ds.num_classes, seed=3)
        trainer = DistributedTrainer(
            model_k, ds.graph, hash_partition(ds.graph.num_vertices, k)
        )
        stats = trainer.train_epoch(
            feats, ds.labels, Adam(model_k.parameters(), 0.01), ds.train_mask
        )
        # Compare the losses computed from the same initial weights.
        from repro.tensor import cross_entropy

        ref_loss = cross_entropy(Tensor(expected), ds.labels, ds.train_mask).item()
        assert stats.loss == pytest.approx(ref_loss, rel=1e-8)
