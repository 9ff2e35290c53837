"""Tests for the readers of repro.obs: exact span distributions, the
per-epoch event series, straggler analysis, the Chrome trace exporter,
and the ADB calibration/rebalance telemetry."""

import json
import os
import sys

import numpy as np
import pytest

from repro import obs
from repro.core import ADBBalancer, CostModel, metrics_from_hdg
from repro.core.balancer import REBALANCE_EVENT
from repro.core.cost_model import R_SQUARED_GAUGE
from repro.core.hdg import hdg_from_graph
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import hash_partition, power_law_graph
from repro.models import gcn
from repro.obs.export import to_chrome_trace, to_dict
from repro.tensor import Adam, Tensor

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import obsview  # noqa: E402


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


# ----------------------------------------------------------------------
# Distribution readouts: exact, computed by the reader from the records
# ----------------------------------------------------------------------

class TestSpanDistribution:
    def test_percentiles_are_order_statistics(self):
        durations = [i * 1e-3 for i in range(1, 101)]     # 1..100 ms
        for d in reversed(durations):
            obs.record_span("stage.x", d)
        row = obs.aggregate_spans(obs.get_registry().spans)["stage.x"]
        assert row["count"] == 100
        assert row["total"] == pytest.approx(sum(durations))
        assert row["p50"] == durations[50]
        assert row["p99"] == durations[98]
        assert row["max"] == durations[99]
        # p90 and p99 no longer collapse into one log bucket
        assert obs.percentile(durations, 0.90) == durations[89] < row["p99"]
        assert obs.percentile([], 0.5) == 0.0

    def test_exported_dicts_aggregate_identically(self):
        for d in (0.3, 0.1, 0.2):
            obs.record_span("s", d, worker=1)
        live = obs.aggregate_spans(obs.get_registry().spans)
        assert obs.aggregate_spans(to_dict()["spans"]) == live
        assert live["s"]["simulated"] and live["s"]["p50"] == 0.2
        assert "p50" in obs.render_summary(to_dict())


# ----------------------------------------------------------------------
# Straggler analysis
# ----------------------------------------------------------------------

class TestStragglerAnalysis:
    def _plant(self, computes, comms=None, layer=0):
        comms = comms or [0.0] * len(computes)
        for w, (cmp_s, comm_s) in enumerate(zip(computes, comms)):
            obs.record_span("dist.compute", cmp_s, worker=w, layer=layer)
            obs.record_span("dist.comm", comm_s, worker=w, layer=layer)

    def test_empty_report(self):
        report = obs.straggler_report(to_dict()["spans"])
        assert report.slowest_worker is None
        assert report.skew_ratio == 1.0
        assert report.render() == "(no distributed spans recorded)"

    def test_slowest_worker_and_skew(self):
        self._plant([0.1, 0.1, 0.1, 0.5])
        report = obs.straggler_report(to_dict()["spans"])
        assert report.slowest_worker == 3
        assert report.skew_ratio == pytest.approx(5.0)
        assert report.stragglers == [3]
        assert report.per_worker[3]["compute"] == pytest.approx(0.5)

    def test_threshold_controls_straggler_set(self):
        self._plant([0.1, 0.13, 0.1, 0.1])
        strict = obs.straggler_report(to_dict()["spans"], threshold=1.2)
        loose = obs.straggler_report(to_dict()["spans"], threshold=2.0)
        assert strict.stragglers == [1]
        assert loose.stragglers == []
        with pytest.raises(ValueError):
            obs.straggler_report(to_dict()["spans"], threshold=0.0)

    def test_critical_path_per_layer(self):
        # Layer 0: worker 1 dominated by comm; layer 1: worker 0 compute.
        self._plant([0.1, 0.1], comms=[0.0, 0.4], layer=0)
        self._plant([0.5, 0.1], comms=[0.0, 0.0], layer=1)
        report = obs.straggler_report(to_dict()["spans"])
        assert report.critical_path == {0: 1, 1: 0}

    def test_accepts_exported_trace_dicts(self):
        self._plant([0.1, 0.3])
        exported = to_dict()["spans"]
        obs.reset()
        report = obs.straggler_report(spans=exported)
        assert report.slowest_worker == 1
        assert report.skew_ratio == pytest.approx(1.5)

    def test_render_marks_straggler(self):
        self._plant([0.1, 0.1, 0.6])
        text = obs.straggler_report(to_dict()["spans"]).render()
        assert "<- straggler" in text
        assert "skew ratio" in text

    def test_to_dict_serializable(self):
        self._plant([0.1, 0.2])
        report = obs.straggler_report(to_dict()["spans"])
        d = json.loads(json.dumps(report.to_dict()))
        assert d["slowest_worker"] == 1
        assert set(d["per_worker"]) == {"0", "1"}

    def test_planted_straggler_in_real_trainer(self, ds):
        """worker_speeds models a 10x-slow worker; the report must name
        it and show the skew."""
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        labels = hash_partition(ds.graph.num_vertices, 4)
        trainer = DistributedTrainer(
            model, ds.graph, labels, worker_speeds=[1.0, 1.0, 1.0, 0.1]
        )
        trainer.train_epoch(Tensor(ds.features), ds.labels,
                            Adam(model.parameters(), 0.01), ds.train_mask)
        report = obs.straggler_report(to_dict()["spans"])
        assert report.slowest_worker == 3
        assert report.skew_ratio > 2.0
        assert 3 in report.stragglers
        # The dist.compute latency distribution reflects the skew too.
        row = obs.aggregate_spans(obs.get_registry().spans)["dist.compute"]
        assert row["count"] > 0 and row["p99"] > row["p50"]

    def test_worker_and_layer_read_from_the_context_stamp(self):
        """The real runtime names worker/layer in each process's context
        stamp, not in span attrs; the report reads either."""
        reg = obs.get_registry()
        for w, cmp_s in enumerate([0.1, 0.4]):
            reg.set_context(worker=w, layer=0)
            obs.record_span("dist.compute", cmp_s)
        reg.clear_context()
        assert all("worker" not in s.attrs for s in reg.spans)
        report = obs.straggler_report(to_dict()["spans"])
        assert report.slowest_worker == 1
        assert report.critical_path == {0: 1}


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------

class TestChromeTrace:
    def test_schema_structurally_valid(self):
        with obs.span("measured.outer"):
            obs.record_span("sim.comm", 0.25, worker=2)
        obs.event("marker", note="x")
        trace = to_chrome_trace(to_dict())
        events = trace["traceEvents"]
        assert events and trace["displayTimeUnit"] == "ms"
        for e in events:
            assert e["ph"] in ("X", "i", "M", "C")
            assert "pid" in e and "tid" in e and "name" in e
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
            if e["ph"] == "i":
                assert e["s"] == "g"

    def test_simulated_and_measured_lanes_split(self):
        with obs.span("m"):
            pass
        obs.record_span("s", 0.1, worker=3)
        by_name = {
            e["name"]: e
            for e in to_chrome_trace(to_dict())["traceEvents"]
            if e["ph"] == "X"
        }
        assert by_name["m"]["pid"] == 0
        assert by_name["s"]["pid"] == 1
        assert by_name["s"]["tid"] == 3   # worker attr -> thread lane

    def test_export_writes_loadable_json(self, tmp_path):
        with obs.span("m"):
            pass
        trace, path = tmp_path / "trace.json", tmp_path / "chrome.json"
        obs.export_json(str(trace))
        assert obsview.main(["chrome", str(trace), str(path)]) == 0
        data = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in data["traceEvents"])

    def test_durations_in_microseconds(self):
        obs.record_span("s", 0.5)
        x = [e for e in to_chrome_trace(to_dict())["traceEvents"]
             if e["ph"] == "X"][0]
        assert x["dur"] == pytest.approx(0.5e6)

    def test_non_integer_worker_labels_get_distinct_tids(self):
        """Regression: non-int worker attrs used to collapse to tid 0."""
        obs.record_span("a", 0.1, worker="ps-0")
        obs.record_span("b", 0.1, worker="trainer-1")
        obs.record_span("c", 0.1, worker=2)
        events = to_chrome_trace(to_dict())["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        # distinct labels -> distinct tids, well clear of int ranks
        assert by_name["a"]["tid"] != by_name["b"]["tid"]
        assert by_name["a"]["tid"] >= 10_000
        assert by_name["b"]["tid"] >= 10_000
        # integer workers keep their rank as tid
        assert by_name["c"]["tid"] == 2
        # the coercion is documented in the trace itself
        coercions = [e for e in events
                     if e["name"] == "trace.worker_label_coerced"]
        assert {e["args"]["worker"] for e in coercions} == {"ps-0", "trainer-1"}
        thread_names = [e for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"]
        # coerced labels get "worker <label>" names; integer ranks get
        # their own named lane so merged multiprocess traces read
        # "rank 0 / rank 1 / ..."
        assert {e["args"]["name"] for e in thread_names} == {
            "worker ps-0", "worker trainer-1", "rank 2"
        }

    def test_worker_label_tids_stable_across_exports(self):
        obs.record_span("a", 0.1, worker="beta")
        obs.record_span("b", 0.1, worker="alpha")
        first = {e["name"]: e["tid"]
                 for e in to_chrome_trace(to_dict())["traceEvents"]
                 if e["ph"] == "X"}
        second = {e["name"]: e["tid"]
                  for e in to_chrome_trace(to_dict())["traceEvents"]
                  if e["ph"] == "X"}
        assert first == second
        # sorted-label assignment: alpha < beta regardless of span order
        assert first["b"] < first["a"]


# ----------------------------------------------------------------------
# ADB observability
# ----------------------------------------------------------------------

class TestADBObservability:
    def make_skewed_setup(self):
        g = power_law_graph(300, 8, seed=2)
        hdg = hdg_from_graph(g)
        metrics = metrics_from_hdg(hdg, 32)
        labels = np.minimum(np.arange(300) * 4 // 300, 3)
        return hdg, metrics, labels

    def test_rebalance_emits_event_with_plan_attrs(self):
        hdg, metrics, labels = self.make_skewed_setup()
        balancer = ADBBalancer(num_plans=5, threshold=1.05, seed=0)
        _new, plan = balancer.rebalance(hdg, labels, 4, metrics)
        events = [e for e in obs.get_registry().events
                  if e.name == REBALANCE_EVENT]
        assert len(events) == 1
        attrs = events[0].attrs
        assert attrs["balance_before"] >= attrs["balance_after"]
        assert attrs["plans_generated"] >= 1
        assert attrs["triggered"] == (plan is not None)
        if plan is not None:
            assert attrs["moved_vertices"] == plan.moved.size
            assert attrs["cut_edges"] == plan.cut_edges
            assert attrs["plans_rejected"] == attrs["plans_generated"] - 1
            assert obs.gauge("adb.moved_vertices").value == plan.moved.size

    def test_untriggered_rebalance_still_emits_event(self):
        hdg, metrics, labels = self.make_skewed_setup()
        balancer = ADBBalancer(threshold=1e9)
        balancer.rebalance(hdg, labels, 4, metrics)
        events = [e for e in obs.get_registry().events
                  if e.name == REBALANCE_EVENT]
        assert len(events) == 1
        assert events[0].attrs["triggered"] is False
        assert events[0].attrs["balance_before"] == (
            events[0].attrs["balance_after"]
        )
        assert obs.gauge("adb.balance_factor").count == 1

    def test_fit_publishes_calibration_metrics(self):
        hdg, metrics, _labels = self.make_skewed_setup()
        observed = CostModel.default_costs(metrics) + 5.0
        CostModel().fit(metrics, observed)
        g = obs.gauge(R_SQUARED_GAUGE)
        assert g.count == 1
        assert g.value == pytest.approx(1.0, abs=1e-6)

    def test_refit_tracks_drift(self):
        """Two fits -> the gauge holds the latest R², history in count."""
        hdg, metrics, _labels = self.make_skewed_setup()
        rng = np.random.default_rng(0)
        cm = CostModel()
        cm.fit(metrics, CostModel.default_costs(metrics))
        good = obs.gauge(R_SQUARED_GAUGE).value
        cm.fit(metrics, rng.standard_normal(metrics.shape[0]) ** 2)
        assert obs.gauge(R_SQUARED_GAUGE).count == 2
        assert obs.gauge(R_SQUARED_GAUGE).value <= good

    def test_calibration_report(self):
        hdg, metrics, _labels = self.make_skewed_setup()
        observed = CostModel.default_costs(metrics)
        cm = CostModel().fit(metrics, observed)
        cal = cm.calibration(metrics, observed)
        assert cal["r_squared"] == pytest.approx(1.0, abs=1e-6)
        assert cal["n"] == metrics.shape[0]
        assert 0.0 <= cal["residual_p50"] <= cal["residual_p90"]
        assert cal["residual_p90"] <= cal["residual_max"] + 1e-12


# ----------------------------------------------------------------------
# End-to-end acceptance: the full telemetry picture after a balanced
# distributed run.
# ----------------------------------------------------------------------

class TestEndToEnd:
    def test_distributed_run_populates_all_tiers(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        labels = hash_partition(ds.graph.num_vertices, 4)
        trainer = DistributedTrainer(model, ds.graph, labels)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        for epoch in range(2):
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch)

        # One "epoch" event per epoch carries the per-epoch scalars.
        reg = obs.get_registry()
        rows = [e.attrs for e in reg.events if e.name == "epoch"]
        assert [row["epoch"] for row in rows] == [0, 1]
        for key in ("loss", "simulated_seconds", "bytes", "messages",
                    "balance_factor", "vertices_per_sec"):
            assert all(key in row for row in rows), key
        assert rows[-1]["comm_mode"] in ("pipelined", "batched", "mixed")

        # Per-span latency distributions with working percentiles.
        row = obs.aggregate_spans(reg.spans)["dist.compute"]
        assert row["count"] == 4 * len(model.layers) * 2
        assert 0 < row["p50"] <= row["p99"] <= row["max"]

        # The comm planner reports each layer's traffic.
        plans = [e.attrs for e in reg.events if e.name == "comm.plan"]
        assert plans and all(p["messages"] > 0 for p in plans)

        # The Chrome export renders without error.
        assert to_chrome_trace(to_dict())["traceEvents"]
