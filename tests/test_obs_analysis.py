"""Tests for the analysis tier of repro.obs: histograms, epoch
time-series, straggler analysis, standard exporters (Chrome trace /
Prometheus), and the ADB calibration/rebalance telemetry."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.core import (
    ADBBalancer,
    CostModel,
    R_SQUARED_GAUGE,
    REBALANCE_EVENT,
    RESIDUAL_HISTOGRAM,
    hdg_from_graph,
    metrics_from_hdg,
)
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import hash_partition, power_law_graph
from repro.models import gcn
from repro.obs.histogram import Histogram
from repro.obs.timeseries import EpochLog
from repro.tensor import Adam, Tensor


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------

class TestHistogram:
    def test_empty_percentiles_are_zero(self):
        h = Histogram("empty")
        assert h.count == 0
        assert h.p50 == 0.0 and h.p90 == 0.0 and h.p99 == 0.0
        assert h.mean == 0.0

    def test_percentiles_within_bucket_error(self):
        """Log-bucketing (10 buckets/decade) keeps percentiles within
        ~12% relative error of the exact values."""
        rng = np.random.default_rng(0)
        values = rng.lognormal(mean=-5.0, sigma=1.0, size=5000)
        h = Histogram("lat")
        h.observe_many(values)
        for q in (50, 90, 99):
            exact = float(np.percentile(values, q))
            approx = h.percentile(q)
            # Reported value is the bucket's *upper* bound: never below
            # the exact percentile, at most one bucket width (growth
            # 10**0.1 ~ 1.26x) above it.
            assert exact * 0.95 <= approx <= exact * 1.30, q

    def test_observe_many_matches_scalar_observe(self):
        values = [1e-6, 3e-4, 0.02, 0.02, 5.0]
        a, b = Histogram("a"), Histogram("b")
        for v in values:
            a.observe(v)
        b.observe_many(np.array(values))
        assert a.count == b.count
        assert a.sum == pytest.approx(b.sum)
        assert a.buckets == b.buckets
        assert a.p50 == b.p50 and a.p99 == b.p99

    def test_weighted_observe(self):
        h = Histogram("w")
        h.observe(2.0, count=3)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        h.observe(10.0, count=0)   # non-positive counts are ignored
        assert h.count == 3

    def test_underflow_bucket(self):
        h = Histogram("u")
        h.observe(0.0)
        h.observe(-1.0)
        h.observe(h.base / 2)
        assert h.underflow == 3
        assert h.buckets == {}
        # Percentiles clamp into [min, max].
        assert h.p50 == h.max

    def test_percentile_clamped_to_observed_range(self):
        h = Histogram("c")
        h.observe(0.5)
        # The bucket upper bound exceeds 0.5, but the report must not.
        assert h.p99 == pytest.approx(0.5)
        assert h.p50 >= h.min

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            Histogram("x", base=0.0)
        with pytest.raises(ValueError):
            Histogram("x", growth=1.0)

    def test_to_dict_schema(self):
        h = Histogram("d")
        h.observe(1.0)
        h.observe(2.0)
        d = h.to_dict()
        assert d["count"] == 2
        assert d["sum"] == pytest.approx(3.0)
        assert d["min"] == 1.0 and d["max"] == 2.0
        assert [c for _b, c in d["buckets"]] and sum(
            c for _b, c in d["buckets"]
        ) == 2

    def test_reset(self):
        h = Histogram("r")
        h.observe(1.0)
        h.reset()
        assert h.count == 0 and h.buckets == {} and h.underflow == 0
        assert math.isinf(h.min)

    def test_registry_fetch_or_create_identity(self):
        assert obs.histogram("same") is obs.histogram("same")
        assert obs.histogram("same") is not obs.histogram("other")

    def test_span_latency_histograms_auto_derived(self):
        for seconds in (0.001, 0.002, 0.004, 0.100):
            obs.record_span("stage.x", seconds)
        h = obs.histogram(obs.SPAN_HISTOGRAM_PREFIX + "stage.x")
        assert h.count == 4
        assert 0.001 <= h.p50 <= 0.0026   # upper bound of the 2ms bucket
        assert 0.05 <= h.p99 <= 0.1

    def test_span_histograms_exact_past_record_cap(self):
        """Histograms keep counting after the span cap, like counters.
        Uses a private Registry so the global cap is untouched."""
        from repro.obs.registry import Registry

        reg = Registry(max_records=5)
        for _ in range(20):
            reg.record_span("capped", 0.01)
        assert len(reg.spans) == 5
        assert reg.dropped_spans == 15
        assert reg.histogram("span.capped").count == 20


# ----------------------------------------------------------------------
# EpochLog
# ----------------------------------------------------------------------

class TestEpochLog:
    def test_log_and_series(self):
        log = EpochLog("t")
        log.log(0, loss=1.0, seconds=0.5)
        log.log(1, loss=0.5, seconds=0.4, extra="note")
        assert len(log) == 2
        assert log.series("loss") == [1.0, 0.5]
        assert log.series("extra") == ["note"]   # missing rows skipped
        assert log.series("absent") == []
        assert log.latest()["epoch"] == 1
        assert log.keys() == ["epoch", "loss", "seconds", "extra"]

    def test_empty_latest_is_none(self):
        assert EpochLog("e").latest() is None

    def test_bool_values_preserved(self):
        """Regression: bool is a subclass of int, so True used to be
        coerced to 1.0 by the float() normalization."""
        log = EpochLog("t")
        row = log.log(0, improved=True, stale=False, loss=1)
        assert row["improved"] is True
        assert row["stale"] is False
        assert isinstance(row["loss"], float) and row["loss"] == 1.0
        assert log.series("improved") == [True]
        # round-trips through JSON as actual booleans
        d = json.loads(json.dumps(log.to_dict()))
        assert d["rows"][0]["improved"] is True

    def test_to_dict_round_trip(self):
        log = EpochLog("t")
        log.log(3, loss=0.25)
        d = json.loads(json.dumps(log.to_dict()))
        assert d == {"name": "t", "rows": [{"epoch": 3, "loss": 0.25}]}

    def test_registry_fetch_or_create(self):
        assert obs.epoch_log() is obs.epoch_log("train")
        obs.epoch_log("arm-a").log(0, loss=1.0)
        assert len(obs.epoch_log("arm-a")) == 1
        assert len(obs.epoch_log()) == 0


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
        report = obs.straggler_report()
        assert report.slowest_worker is None
        assert report.skew_ratio == 1.0
        assert report.render() == "(no distributed spans recorded)"

    def test_slowest_worker_and_skew(self):
        self._plant([0.1, 0.1, 0.1, 0.5])
        report = obs.straggler_report()
        assert report.slowest_worker == 3
        assert report.skew_ratio == pytest.approx(5.0)
        assert report.stragglers == [3]
        assert report.per_worker[3]["compute"] == pytest.approx(0.5)

    def test_threshold_controls_straggler_set(self):
        self._plant([0.1, 0.13, 0.1, 0.1])
        strict = obs.straggler_report(threshold=1.2)
        loose = obs.straggler_report(threshold=2.0)
        assert strict.stragglers == [1]
        assert loose.stragglers == []
        with pytest.raises(ValueError):
            obs.straggler_report(threshold=0.0)

    def test_critical_path_per_layer(self):
        # Layer 0: worker 1 dominated by comm; layer 1: worker 0 compute.
        self._plant([0.1, 0.1], comms=[0.0, 0.4], layer=0)
        self._plant([0.5, 0.1], comms=[0.0, 0.0], layer=1)
        report = obs.straggler_report()
        assert report.critical_path == {0: 1, 1: 0}

    def test_accepts_exported_trace_dicts(self):
        self._plant([0.1, 0.3])
        exported = obs.to_dict()["spans"]
        obs.reset()
        report = obs.straggler_report(spans=exported)
        assert report.slowest_worker == 1
        assert report.skew_ratio == pytest.approx(1.5)

    def test_render_marks_straggler(self):
        self._plant([0.1, 0.1, 0.6])
        text = obs.straggler_report().render()
        assert "<- straggler" in text
        assert "skew ratio" in text

    def test_to_dict_serializable(self):
        self._plant([0.1, 0.2])
        d = json.loads(json.dumps(obs.straggler_report().to_dict()))
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
        report = obs.straggler_report()
        assert report.slowest_worker == 3
        assert report.skew_ratio > 2.0
        assert 3 in report.stragglers
        # The latency histogram for dist.compute reflects the skew too.
        h = obs.histogram("span.dist.compute")
        assert h.count > 0 and h.p99 > h.p50


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------

class TestChromeTrace:
    def test_schema_structurally_valid(self):
        with obs.span("measured.outer"):
            obs.record_span("sim.comm", 0.25, worker=2)
        obs.event("marker", note="x")
        trace = obs.to_chrome_trace()
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
            for e in obs.to_chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        }
        assert by_name["m"]["pid"] == 0
        assert by_name["s"]["pid"] == 1
        assert by_name["s"]["tid"] == 3   # worker attr -> thread lane

    def test_export_writes_loadable_json(self, tmp_path):
        with obs.span("m"):
            pass
        path = tmp_path / "trace.json"
        obs.export_chrome_trace(str(path))
        data = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in data["traceEvents"])

    def test_durations_in_microseconds(self):
        obs.record_span("s", 0.5)
        x = [e for e in obs.to_chrome_trace()["traceEvents"]
             if e["ph"] == "X"][0]
        assert x["dur"] == pytest.approx(0.5e6)

    def test_non_integer_worker_labels_get_distinct_tids(self):
        """Regression: non-int worker attrs used to collapse to tid 0."""
        obs.record_span("a", 0.1, worker="ps-0")
        obs.record_span("b", 0.1, worker="trainer-1")
        obs.record_span("c", 0.1, worker=2)
        events = obs.to_chrome_trace()["traceEvents"]
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
                 for e in obs.to_chrome_trace()["traceEvents"]
                 if e["ph"] == "X"}
        second = {e["name"]: e["tid"]
                  for e in obs.to_chrome_trace()["traceEvents"]
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
        h = obs.histogram(RESIDUAL_HISTOGRAM)
        assert h.count == metrics.shape[0]

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

        # Epoch series carries the per-epoch scalars.
        log = obs.epoch_log()
        assert len(log) == 2
        for key in ("loss", "simulated_seconds", "bytes", "messages",
                    "balance_factor", "vertices_per_sec"):
            series = log.series(key)
            assert len(series) == 2, key
        assert log.latest()["comm_mode"] in ("pipelined", "batched", "mixed")

        # Per-span latency histograms with working percentiles.
        h = obs.histogram("span.dist.compute")
        assert h.count == 4 * len(model.layers) * 2
        assert 0 < h.p50 <= h.p90 <= h.p99

        # Message-size histogram from the comm planner.
        assert obs.histogram("comm.message_bytes").count > 0

        # The Chrome export renders without error.
        assert obs.to_chrome_trace()["traceEvents"]
