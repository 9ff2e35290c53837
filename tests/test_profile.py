"""Tests for the op-level work profiler (repro.obs.profile): FLOP/byte
accounting, span attribution, backend ranking (Figure 14), cost-model
drift, Chrome counter tracks, and the straggler work split."""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import (
    CostModel,
    ADBBalancer,
    ExecutionStrategy,
    FlexGraphEngine,
    hierarchical_aggregate,
    metrics_from_hdg,
)
from repro.core.cost_model import DRIFT_EVENT, DRIFT_GAUGE
from repro.core.hdg import hdg_from_graph
from repro.core.aggregation import get_aggregator
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import hash_partition, power_law_graph
from repro.models import gcn
from repro.obs.analysis import backend_report, render_backend_report
from repro.obs.export import to_chrome_trace, to_dict
from repro.obs.profile import profile_report, render_profile_report
from repro.tensor import Adam, Tensor
from repro.tensor.ops import concat, log_softmax, softmax
from repro.tensor.scatter import scatter_add, scatter_mean, segment_reduce_csr


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


# ----------------------------------------------------------------------
# record_op / attribution plumbing
# ----------------------------------------------------------------------

class TestRecordOp:
    def test_counters_accumulate(self):
        obs.record_op("x", flops=10, bytes_read=4, bytes_written=2)
        obs.record_op("x", flops=5, bytes_read=1, bytes_written=1)
        assert obs.counter("profile.flops").total == 15
        assert obs.counter("profile.bytes_read").total == 5
        assert obs.counter("profile.bytes_written").total == 3
        assert obs.counter("profile.op.x.flops").total == 15
        assert obs.counter("profile.op.x.bytes").total == 8

    def test_inclusive_span_attribution(self):
        with obs.span("outer"):
            with obs.span("inner") as inner:
                obs.record_op("x", flops=10, bytes_read=4, bytes_written=2)
        outer = obs.get_registry().spans[-1]
        assert inner.attrs["flops"] == 10
        assert outer.attrs["flops"] == 10          # parent sees child work
        assert outer.attrs["bytes_read"] == 4

    def test_intensity_stamped_on_close(self):
        with obs.span("s") as s:
            obs.record_op("x", flops=12, bytes_read=4, bytes_written=2)
        assert s.attrs["arithmetic_intensity"] == pytest.approx(2.0)

    def test_span_without_ops_gets_no_work_keys(self):
        with obs.span("quiet", step=1) as s:
            pass
        assert s.attrs == {"step": 1}

    def test_work_snapshot_delta(self):
        obs.record_op("x", flops=10, bytes_read=2, bytes_written=1)
        mark = obs.work_snapshot()
        obs.record_op("x", flops=7, bytes_read=3, bytes_written=2)
        delta = obs.work_since(mark)
        assert delta == {"flops": 7.0, "bytes_read": 3.0, "bytes_written": 2.0}


# ----------------------------------------------------------------------
# per-op FLOP conventions
# ----------------------------------------------------------------------

class TestOpConventions:
    def test_matmul_forward_2nkm(self):
        a = Tensor(np.ones((3, 4)))
        b = Tensor(np.ones((4, 5)))
        _ = a @ b
        assert obs.counter("profile.op.matmul.flops").total == 2 * 3 * 4 * 5
        expected_bytes = a.data.nbytes + b.data.nbytes + 3 * 5 * 8
        assert obs.counter("profile.op.matmul.bytes").total == expected_bytes

    def test_matmul_backward_two_more_matmuls(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        # both grad branches executed: 2 x forward count
        assert obs.counter("profile.op.matmul.backward.flops").total == (
            2 * (2 * 3 * 4 * 5)
        )

    def test_scatter_add_one_flop_per_element(self):
        value = Tensor(np.ones((6, 4)))
        index = np.array([0, 0, 1, 1, 2, 2])
        scatter_add(value, index, dim_size=3)
        assert obs.counter("profile.op.scatter_add.flops").total == 24

    def test_scatter_mean_two_flops_per_element(self):
        value = Tensor(np.ones((6, 4)))
        index = np.array([0, 0, 1, 1, 2, 2])
        scatter_mean(value, index, dim_size=3)
        assert obs.counter("profile.op.scatter_mean.flops").total == 48

    def test_segment_reduce_sum_spmm_convention(self):
        value = Tensor(np.ones((5, 3)))
        offsets = np.array([0, 2, 5])
        segment_reduce_csr(value, offsets, reducer="sum")
        # 2 FLOPs per reduced element: 2 * total(5) * dim(3)
        assert obs.counter("profile.op.segment_reduce.sum.flops").total == 30

    def test_softmax_ops_counted(self):
        softmax(Tensor(np.ones((4, 5))))
        log_softmax(Tensor(np.ones((4, 5))))
        assert obs.counter("profile.op.softmax.flops").total == 100
        assert obs.counter("profile.op.log_softmax.flops").total == 100

    def test_concat_is_pure_data_movement(self):
        concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))])
        assert obs.counter("profile.op.concat.flops").total == 0
        assert obs.counter("profile.op.concat.bytes").total == 2 * (2 * 6 * 8)


# ----------------------------------------------------------------------
# acceptance: every NAU stage carries nonzero work attribution
# ----------------------------------------------------------------------

class TestEngineProfile:
    def test_all_stage_spans_carry_work(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=0)
        engine.train_epoch(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), ds.train_mask)
        spans = obs.get_registry().spans
        stage_names = {"stage.neighbor_selection", "stage.aggregation",
                       "stage.update", "stage.backward"}
        seen = set()
        for s in spans:
            if s.name not in stage_names:
                continue
            seen.add(s.name)
            moved = s.attrs.get("bytes_read", 0) + s.attrs.get("bytes_written", 0)
            assert moved > 0, f"{s.name} has no byte attribution"
            assert "flops" in s.attrs, f"{s.name} has no flops key"
            assert "arithmetic_intensity" in s.attrs
        assert seen == stage_names
        # compute stages do real floating-point work
        agg = [s for s in spans if s.name == "stage.aggregation"]
        upd = [s for s in spans if s.name == "stage.update"]
        back = [s for s in spans if s.name == "stage.backward"]
        assert all(s.attrs["flops"] > 0 for s in agg + upd + back)

    def test_epoch_log_carries_work_columns(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=0)
        engine.train_epoch(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), ds.train_mask)
        (row,) = [e.attrs for e in obs.get_registry().events
                  if e.name == "epoch"]
        assert row["flops"] > 0 and row["work_bytes"] > 0

    def test_profile_report_structure(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="sa", seed=0)
        engine.train_epoch(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), ds.train_mask)
        report = profile_report(to_dict())
        assert report["totals"]["flops"] > 0
        assert report["totals"]["arithmetic_intensity"] > 0
        assert "matmul" in report["ops"]
        assert report["spans"]["stage.aggregation"]["flops"] > 0
        assert any(r["backend"] == "sparse" for r in report["backends"])
        assert report["roofline"]["peak_flops_per_sec"] > 0
        # JSON-serializable end to end
        json.dumps(report)

    def test_render_and_export(self, ds, tmp_path):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=0)
        engine.train_epoch(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), ds.train_mask)
        path = tmp_path / "trace.json"
        obs.export_json(str(path))
        report = profile_report(json.loads(path.read_text()))
        assert report["totals"]["flops"] > 0
        text = render_profile_report(report)
        assert "work profile:" in text
        assert "matmul" in text
        assert "stage.aggregation" in text


# ----------------------------------------------------------------------
# acceptance: Figure 14 ordering in the per-level backend report
# ----------------------------------------------------------------------

class TestBackendReport:
    def _run_strategy(self, ds, strategy):
        obs.reset()
        hdg = hdg_from_graph(ds.graph)
        feats = Tensor(ds.features)
        agg = get_aggregator("sum")
        hierarchical_aggregate(hdg, feats, [agg], strategy)
        return backend_report(to_dict()["events"])["rows"]

    def test_backend_events_carry_measured_cost(self, ds):
        rows = self._run_strategy(ds, ExecutionStrategy.HA)
        assert rows, "no aggregation.backend events"
        for row in rows:
            assert row["seconds"] > 0
            assert row["bytes"] > 0
            assert row["count"] == 1

    def test_figure14_bottom_level_bytes_ordering(self, ds):
        """HA <= SA+FA <= SA in bottom-level bytes moved: the sparse
        path gathers one message per edge before reducing, the fused
        path streams source rows straight into accumulators."""
        def bottom_bytes(strategy):
            rows = self._run_strategy(ds, strategy)
            return sum(r["bytes"] for r in rows if r["level"] == "bottom")

        ha = bottom_bytes(ExecutionStrategy.HA)
        sa_fa = bottom_bytes(ExecutionStrategy.SA_FA)
        sa = bottom_bytes(ExecutionStrategy.SA)
        assert ha <= sa_fa <= sa
        assert sa > sa_fa    # the gather materialization is visible

    def test_report_reads_exported_traces(self, ds):
        self._run_strategy(ds, ExecutionStrategy.SA)
        snapshot = to_dict()
        rows = backend_report(snapshot["events"])["rows"]
        assert rows and rows[0]["backend"] == "sparse"
        text = render_backend_report(rows)
        assert "sparse" in text and "bottom" in text


# ----------------------------------------------------------------------
# acceptance: cost-model drift flagged across structurally different
# workloads
# ----------------------------------------------------------------------

class TestCostModelDrift:
    def _workload(self, seed, gamma):
        graph = power_law_graph(200, avg_degree=6, seed=seed)
        hdg = hdg_from_graph(graph)
        metrics = metrics_from_hdg(hdg, feat_dim=16)
        k = metrics.shape[1] // 2
        n, m = metrics[:, :k], metrics[:, k:]
        # per-root observed costs; gamma controls the structural relation
        costs = (n * m**gamma).sum(axis=1) + 1.0
        return metrics, costs

    def test_same_workload_low_drift(self):
        metrics, costs = self._workload(seed=0, gamma=1.0)
        model = CostModel().fit(metrics, costs)
        result = model.drift_check(metrics, costs, threshold=0.5)
        assert result["drift"] < 0.1
        assert not result["flagged"]
        assert obs.get_registry().gauges[DRIFT_GAUGE].value == result["drift"]
        assert not [e for e in obs.get_registry().events
                    if e.name == DRIFT_EVENT]

    def test_structurally_different_workload_flags_drift(self):
        fit_metrics, fit_costs = self._workload(seed=0, gamma=1.0)
        model = CostModel().fit(fit_metrics, fit_costs)
        # same graph family, but costs now scale superlinearly in m —
        # a structurally different workload the linear-in-nm polynomial
        # cannot describe
        eval_metrics, eval_costs = self._workload(seed=1, gamma=2.0)
        result = model.drift_check(eval_metrics, eval_costs, threshold=0.5)
        assert result["drift"] > 0.5
        assert result["flagged"]
        events = [e for e in obs.get_registry().events
                  if e.name == DRIFT_EVENT]
        assert len(events) == 1
        assert events[0].attrs["drift"] == result["drift"]

    def test_drift_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            CostModel().drift_check(np.ones((3, 2)), np.ones(3))

    def test_bad_threshold_rejected(self):
        metrics, costs = self._workload(seed=0, gamma=1.0)
        model = CostModel().fit(metrics, costs)
        with pytest.raises(ValueError, match="threshold"):
            model.drift_check(metrics, costs, threshold=0.0)

    def test_balancer_observe_runs_drift_check(self):
        balancer = ADBBalancer(seed=0)
        fit_metrics, fit_costs = self._workload(seed=0, gamma=1.0)
        balancer.observe(fit_metrics, fit_costs)
        assert balancer.last_drift is None   # nothing to compare yet
        eval_metrics, eval_costs = self._workload(seed=1, gamma=2.0)
        balancer.observe(eval_metrics, eval_costs)
        assert balancer.last_drift is not None
        assert balancer.last_drift["flagged"]
        # the refit happened after the check: the model now describes
        # the new workload
        post = balancer.cost_model.drift_check(eval_metrics, eval_costs)
        assert post["drift"] < balancer.last_drift["drift"]


# ----------------------------------------------------------------------
# Chrome counter tracks
# ----------------------------------------------------------------------

class TestChromeCounterEvents:
    def test_work_spans_emit_counter_tracks(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=0)
        engine.train_epoch(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), ds.train_mask)
        events = to_chrome_trace(to_dict())["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert names == {"work.flops_per_sec", "work.bytes_per_sec"}
        flops_values = [e["args"]["value"] for e in counters
                        if e["name"] == "work.flops_per_sec"]
        assert any(v > 0 for v in flops_values)
        # each span closes its track back to zero
        assert any(v == 0.0 for v in flops_values)

    def test_plain_spans_emit_no_counters(self):
        with obs.span("not.a.work.span"):
            obs.record_op("x", flops=10, bytes_read=1)
        events = to_chrome_trace(to_dict())["traceEvents"]
        assert not [e for e in events if e["ph"] == "C"]


# ----------------------------------------------------------------------
# straggler report work split
# ----------------------------------------------------------------------

class TestStragglerWorkSplit:
    def _plant(self, worker, compute, flops):
        obs.record_span("dist.compute", compute, simulated=False,
                        worker=worker, layer=0, flops=flops,
                        bytes_read=flops, bytes_written=0.0)

    def test_slow_worker_diagnosed_as_slower(self):
        # equal work, one worker takes 3x the time
        for w in range(3):
            self._plant(w, 0.3 if w == 2 else 0.1, flops=1000.0)
        report = obs.straggler_report(to_dict()["spans"], threshold=1.2)
        assert report.stragglers == [2]
        assert report.work_skew_ratio == pytest.approx(1.0)
        assert report.diagnosis[2] == "slower worker"
        assert "slower worker" in report.render()

    def test_overloaded_worker_diagnosed_as_more_work(self):
        # time tracks work: worker 2 was handed 3x the FLOPs
        for w in range(3):
            flops = 3000.0 if w == 2 else 1000.0
            self._plant(w, flops / 1e4, flops=flops)
        report = obs.straggler_report(to_dict()["spans"], threshold=1.2)
        assert report.stragglers == [2]
        assert report.work_skew_ratio == pytest.approx(3.0)
        assert report.diagnosis[2] == "more work"
        assert "more work" in report.render()

    def test_to_dict_includes_work_fields(self):
        self._plant(0, 0.1, flops=100.0)
        self._plant(1, 0.5, flops=100.0)
        d = obs.straggler_report(to_dict()["spans"], threshold=1.2).to_dict()
        assert d["work_skew_ratio"] == pytest.approx(1.0)
        assert d["per_worker"]["0"]["flops"] == 100.0
        assert d["diagnosis"] == {"1": "slower worker"}
        json.dumps(d)

    def test_real_distributed_run_attributes_work(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        labels = hash_partition(ds.graph.num_vertices, 4)
        trainer = DistributedTrainer(
            model, ds.graph, labels, worker_speeds=[1.0, 1.0, 1.0, 0.1]
        )
        trainer.train_epoch(Tensor(ds.features), ds.labels,
                            Adam(model.parameters(), 0.01), ds.train_mask)
        report = obs.straggler_report(to_dict()["spans"])
        assert all(row["flops"] > 0 for row in report.per_worker.values())
        # modeled-slow worker, not an overloaded one: hash partition
        # spreads work roughly evenly while worker 3 runs at 0.1x speed
        assert 3 in report.stragglers
        assert report.diagnosis[3] == "slower worker"
        assert report.work_skew_ratio < report.skew_ratio
