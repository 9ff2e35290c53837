"""Tests for the cost model and ADB workload balancer (§5, §6)."""

import numpy as np
import pytest

from repro.core import (
    ADBBalancer,
    CostModel,
    NeighborRecord,
    SchemaTree,
    build_hdg,
    induced_dependency_edges,
    metrics_from_hdg,
)
from repro.core.hdg import hdg_from_graph
from repro.core.selection import build_metapath_hdg
from repro.graph import Metapath, balance_factor, heterogeneous_graph, power_law_graph


@pytest.fixture(scope="module")
def magnn_hdg():
    g = heterogeneous_graph(60, 15, 40, seed=0)
    mps = [Metapath((0, 1, 0), "MDM"), Metapath((0, 2, 0), "MAM")]
    return build_metapath_hdg(g, mps), g


class TestMetrics:
    def test_flat_metrics_shape(self):
        g = power_law_graph(100, 6, seed=0)
        hdg = hdg_from_graph(g)
        m = metrics_from_hdg(hdg, feat_dim=20)
        assert m.shape == (100, 2)
        # n = in-degree, m = feat_dim for flat HDGs.
        np.testing.assert_array_equal(m[:, 0], g.in_degree())
        np.testing.assert_array_equal(m[:, 1], np.full(100, 20.0))

    def test_hierarchical_metrics_match_paper_example(self):
        """The Section 5 example: a vertex with 1 MP1 instance and 4 MP2
        instances, dim 20, 3-vertex instances -> n=(1,4), m=(60,60)."""
        schema = SchemaTree(("MP1", "MP2"))
        records = [NeighborRecord(0, (1, 2, 0), 0)] + [
            NeighborRecord(0, (i, i + 1, 0), 1) for i in range(1, 5)
        ]
        hdg = build_hdg(records, schema, np.arange(9), 9)
        m = metrics_from_hdg(hdg, feat_dim=20)
        np.testing.assert_allclose(m[0], [1.0, 4.0, 60.0, 60.0])

    def test_default_costs_match_paper_formula(self):
        metrics = np.array([[1.0, 4.0, 60.0, 60.0]])
        np.testing.assert_allclose(CostModel.default_costs(metrics), [300.0])

    def test_zero_instance_type_yields_finite_zeros(self):
        """A schema type with no instances anywhere must produce n=0 and
        m=0 (not NaN) for every root."""
        schema = SchemaTree(("MP1", "MP2"))
        records = [NeighborRecord(0, (1, 2, 0), 0),
                   NeighborRecord(3, (4, 5, 3), 0)]   # only type 0
        hdg = build_hdg(records, schema, np.array([0, 3]), 6)
        m = metrics_from_hdg(hdg, feat_dim=20)
        assert np.isfinite(m).all()
        np.testing.assert_array_equal(m[:, 1], 0.0)   # n_2 = 0
        np.testing.assert_array_equal(m[:, 3], 0.0)   # m_2 = 0
        assert (m[:, 0] > 0).all() and (m[:, 2] > 0).all()


class TestCostModel:
    def test_fit_recovers_linear_combination(self, magnn_hdg):
        hdg, _g = magnn_hdg
        metrics = metrics_from_hdg(hdg, 16)
        true = CostModel.default_costs(metrics) + 5.0
        cm = CostModel().fit(metrics, true)
        assert cm.r_squared(metrics, true) > 0.999

    def test_fit_with_noise_still_good(self, magnn_hdg):
        hdg, _g = magnn_hdg
        rng = np.random.default_rng(0)
        metrics = metrics_from_hdg(hdg, 16)
        true = CostModel.default_costs(metrics)
        noisy = true + rng.standard_normal(true.size) * (0.01 * true.std() + 1e-9)
        cm = CostModel().fit(metrics, noisy)
        assert cm.r_squared(metrics, true) > 0.95

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CostModel().predict(np.ones((2, 2)))

    def test_predictions_nonnegative(self, magnn_hdg):
        hdg, _g = magnn_hdg
        metrics = metrics_from_hdg(hdg, 16)
        cm = CostModel().fit(metrics, np.zeros(metrics.shape[0]) - 5.0)
        assert (cm.predict(metrics) >= 0).all()

    def test_odd_metric_columns_raise(self):
        with pytest.raises(ValueError):
            CostModel().fit(np.ones((3, 3)), np.ones(3))

    def test_observed_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            CostModel().fit(np.ones((3, 2)), np.ones(4))

    def test_r_squared_perfect_constant(self):
        cm = CostModel().fit(np.ones((4, 2)), np.full(4, 7.0))
        assert cm.r_squared(np.ones((4, 2)), np.full(4, 7.0)) == pytest.approx(1.0)

    def test_r_squared_constant_observed_tolerance_fail(self):
        """Constant held-out costs that the model does NOT predict must
        score 0.0, not divide by a zero total sum of squares."""
        metrics = np.column_stack([np.arange(1.0, 9.0), np.full(8, 2.0)])
        cm = CostModel().fit(metrics, np.arange(1.0, 9.0) * 10.0)
        assert cm.r_squared(metrics, np.full(8, 7.0)) == 0.0


class TestInducedGraph:
    def test_flat_induced_edges_match_graph(self):
        g = power_law_graph(50, 4, seed=1)
        hdg = hdg_from_graph(g)
        roots, leaves = induced_dependency_edges(hdg)
        assert roots.size > 0
        # Every induced edge corresponds to a real dependency.
        for r, l in zip(roots[:20], leaves[:20]):
            assert l in g.in_neighbors(int(r))

    def test_self_edges_excluded(self, magnn_hdg):
        hdg, _g = magnn_hdg
        roots, leaves = induced_dependency_edges(hdg)
        assert np.all(roots != leaves)

    def test_deduplicated(self, magnn_hdg):
        hdg, _g = magnn_hdg
        roots, leaves = induced_dependency_edges(hdg)
        pairs = set(zip(roots.tolist(), leaves.tolist()))
        assert len(pairs) == roots.size


class TestADBBalancer:
    def make_skewed_setup(self):
        """Power-law graph partitioned by hash: vertex-balanced but
        workload-skewed (the Figure 11 premise)."""
        g = power_law_graph(300, 8, seed=2)
        hdg = hdg_from_graph(g)
        metrics = metrics_from_hdg(hdg, 32)
        # Contiguous block partition concentrates the early hubs
        # (preferential attachment) in partition 0 -> cost skew.
        labels = np.minimum(np.arange(300) * 4 // 300, 3)
        return g, hdg, metrics, labels

    def test_rebalance_improves_balance_factor(self):
        _g, hdg, metrics, labels = self.make_skewed_setup()
        balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=0)
        costs = balancer.per_root_costs(metrics)
        before = balance_factor(costs, labels, 4)
        new_labels, plan = balancer.rebalance(hdg, labels, 4, metrics)
        if plan is not None:
            after = balance_factor(costs, new_labels, 4)
            assert after < before
        else:
            # Already balanced below threshold.
            assert before <= 1.05

    def test_no_rebalance_when_balanced(self):
        g = power_law_graph(100, 4, seed=3)
        hdg = hdg_from_graph(g)
        metrics = metrics_from_hdg(hdg, 8)
        balancer = ADBBalancer(threshold=1e9)
        labels = np.arange(100) % 4
        new_labels, plan = balancer.rebalance(hdg, labels, 4, metrics)
        assert plan is None
        np.testing.assert_array_equal(new_labels, labels)

    def test_plan_moves_from_overloaded_to_underloaded(self):
        _g, hdg, metrics, labels = self.make_skewed_setup()
        balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=1)
        costs = balancer.per_root_costs(metrics)
        part_costs = np.zeros(4)
        np.add.at(part_costs, labels, costs)
        new_labels, plan = balancer.rebalance(hdg, labels, 4, metrics)
        if plan is not None:
            assert plan.source_partition == int(np.argmax(part_costs))
            assert np.all(labels[plan.moved] == plan.source_partition)
            assert np.all(new_labels[plan.moved] == plan.target_partition)

    def test_learned_cost_model_used_after_observe(self):
        _g, hdg, metrics, labels = self.make_skewed_setup()
        balancer = ADBBalancer()
        observed = CostModel.default_costs(metrics) * 2.0
        balancer.observe(metrics, observed)
        np.testing.assert_allclose(
            balancer.per_root_costs(metrics), observed, rtol=1e-6, atol=1e-6
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ADBBalancer(num_plans=0)
        with pytest.raises(ValueError):
            ADBBalancer(threshold=0.5)

    def test_chosen_plan_minimizes_cut_among_candidates(self):
        """Generating more plans never yields a worse (cut, balance) pick."""
        _g, hdg, metrics, labels = self.make_skewed_setup()
        one = ADBBalancer(num_plans=1, threshold=1.05, seed=5)
        many = ADBBalancer(num_plans=10, threshold=1.05, seed=5)
        _, plan1 = one.rebalance(hdg, labels, 4, metrics)
        _, plan10 = many.rebalance(hdg, labels, 4, metrics)
        if plan1 is not None and plan10 is not None:
            assert plan10.cut_edges <= plan1.cut_edges

    def test_migration_cap_respects_target_headroom(self):
        """Regression: the cumulative-cost cap previously kept one extra
        candidate (``searchsorted(...) + 1``), overshooting the target
        partition's headroom.

        Setup forces the cap path deterministically: partition 0 holds a
        chain of six cost-10 vertices, budget 32 -> BFS keeps three
        (cost 30) from any seed, leaving three cost-10 candidates
        against headroom 28.  A correct cap moves exactly two (cost 20);
        the off-by-one moved all three (cost 30 > 28)."""
        costs = np.zeros(10)
        costs[:6] = 10.0
        costs[6:] = 1.0
        labels = np.array([0] * 6 + [1] * 4, dtype=np.int64)
        part_costs = np.array([60.0, 4.0])
        # Chain 0-1-2-3-4-5 keeps partition 0 BFS-connected; the same
        # edges serve as the induced graph for the cut computation.
        src = np.arange(5, dtype=np.int64)
        dst = np.arange(1, 6, dtype=np.int64)
        from repro.core.balancer import _build_adjacency

        adjacency = _build_adjacency(src, dst)
        balancer = ADBBalancer(num_plans=1, threshold=1.05, seed=0)
        headroom = part_costs.mean() - part_costs[1]
        for seed in range(8):
            balancer._rng = np.random.default_rng(seed)
            plan = balancer._generate_plan(
                None, labels, 2, costs, part_costs, adjacency, src, dst
            )
            assert plan is not None
            moved_cost = costs[plan.moved].sum()
            assert moved_cost <= headroom + 1e-9, seed
            assert plan.moved.size == 2, seed

    def test_rebalance_never_overshoots_target(self):
        """End-to-end form of the cap invariant on the skewed setup."""
        _g, hdg, metrics, labels = self.make_skewed_setup()
        balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=0)
        costs = np.zeros(hdg.num_input_vertices)
        costs[hdg.roots] = balancer.per_root_costs(metrics)
        part_costs = np.zeros(4)
        np.add.at(part_costs, labels, costs)
        _new, plan = balancer.rebalance(hdg, labels, 4, metrics)
        if plan is not None:
            headroom = part_costs.mean() - part_costs[plan.target_partition]
            assert costs[plan.moved].sum() <= headroom + 1e-9
