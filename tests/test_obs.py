"""Tests for the unified observability layer (repro.obs) and its
integration with the engine, the hybrid executor, the scatter layer and
the simulated distributed runtime."""

import json
import threading
import time

import numpy as np

import pytest

from repro import obs
from repro.core import FlexGraphEngine, StageTimes
from repro.core.engine import STAGE_SPANS
from repro.core.hybrid import BACKEND_EVENT
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import hash_partition
from repro.models import gcn
from repro.serve import GNNServer, InferenceSession
from repro.tensor import Adam, Tensor


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestSpans:
    def test_span_measures_and_records(self):
        with obs.span("work", step=1) as s:
            pass
        assert s.duration >= 0.0
        spans = obs.get_registry().spans
        assert len(spans) == 1
        assert spans[0].name == "work"
        assert spans[0].attrs == {"step": 1}

    def test_nesting_records_parent_and_depth(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.get_registry().spans  # inner finishes first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.parent == outer.id
        assert inner.depth == 1 and outer.depth == 0

    def test_record_span_is_flagged_simulated(self):
        rec = obs.record_span("modeled.comm", 0.25, worker=3)
        assert rec.simulated and rec.duration == 0.25
        assert obs.get_registry().spans[-1] is rec

    def test_disable_suppresses_records_but_still_times(self):
        obs.disable()
        with obs.span("hidden") as s:
            pass
        assert s.duration >= 0.0
        assert obs.get_registry().spans == []
        obs.enable()

    def test_reset_clears_everything(self):
        with obs.span("a"):
            pass
        obs.counter("c").add(5)
        obs.event("e")
        obs.gauge("g").set(1.0)
        obs.reset()
        reg = obs.get_registry()
        assert reg.spans == [] and reg.events == []
        assert reg.counters == {} and reg.gauges == {}

    def test_stale_end_does_not_discard_open_spans(self):
        """Ending a record that is not on the stack (double end) must not
        unwind the currently open spans."""
        reg = obs.get_registry()
        with obs.span("outer"):
            with obs.span("inner") as inner:
                pass
            # inner is already ended: end it again while outer is open.
            reg.end_span(inner.record)
            assert [s.name for s in reg._open.stack] == ["outer"]
            with obs.span("sibling"):
                pass
        names = [s.name for s in reg.spans]
        assert names == ["inner", "sibling", "outer"]
        # The double end neither duplicated the record nor re-timed it.
        assert sum(1 for s in reg.spans if s is inner.record) == 1

    def test_double_end_keeps_first_duration(self):
        reg = obs.get_registry()
        rec = obs.record_span("fixed", 0.5)
        reg.end_span(rec, duration=9.0)
        assert rec.duration == 0.5
        assert len(reg.spans) == 1

    def test_span_scale_multiplies_duration(self):
        with obs.span("scaled", scale=50.0) as s:
            time.sleep(0.002)
        # sleep() never returns early, so measured >= 2ms and scaled >= 0.1.
        assert s.duration >= 0.05
        assert obs.get_registry().spans[0].duration == s.duration

    def test_record_cap_drops_and_counts(self):
        reg = obs.get_registry()
        old_cap = reg.max_records
        reg.max_records = 2
        try:
            for _ in range(4):
                with obs.span("x"):
                    pass
            assert len(reg.spans) == 2
            assert reg.dropped_spans == 2
        finally:
            reg.max_records = old_cap


class TestThreads:
    """The stack of open spans is per thread (the context is per
    process): GNNServer workers and loader threads open spans and call
    record_op concurrently with the main thread."""

    def test_two_threads_keep_their_own_stacks(self):
        a_open, b_open, a_closed = (threading.Event() for _ in range(3))

        def thread_a():
            with obs.span("A"):
                a_open.set()
                b_open.wait(5)
            a_closed.set()

        def thread_b():
            a_open.wait(5)
            with obs.span("B"):
                b_open.set()
                a_closed.wait(5)      # A closes while B is still open
                obs.record_op("op", flops=7.0)
                with obs.span("B.child"):
                    pass

        threads = [threading.Thread(target=t) for t in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5)
        spans = {s.name: s for s in obs.get_registry().spans}
        a, b, child = spans["A"], spans["B"], spans["B.child"]
        # B ran while A was open on another thread: still a root ...
        assert b.parent is None and b.depth == 0
        # ... closing A did not pop B, so B's work and child stay B's
        assert b.attrs["flops"] == 7.0
        assert "flops" not in a.attrs
        assert child.parent == b.id and child.depth == 1

    def test_server_workers_batch_spans_are_roots_with_own_work(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        session = InferenceSession(model, ds.graph, ds.features)
        with GNNServer(session, num_workers=2, max_delay=0.0) as server:
            futures = [server.submit("predict", np.array([i, i + 1]))
                       for i in range(0, 40, 2)]
            with obs.span("client.wait"):   # open on the main thread
                for future in futures:
                    future.result(timeout=30)
        batches = [s for s in obs.get_registry().spans
                   if s.name == "serve.batch"]
        assert batches
        for s in batches:
            assert s.parent is None and s.depth == 0
            assert s.attrs.get("flops", 0.0) > 0.0
        waited = next(s for s in obs.get_registry().spans
                      if s.name == "client.wait")
        assert "flops" not in waited.attrs   # the workers' work is theirs


class TestCountersAndGauges:
    def test_counter_total_current_peak(self):
        c = obs.counter("bytes")
        c.add(100)
        c.add(50)
        c.release(120)
        c.add(10)
        assert c.total == 160
        assert c.current == 40
        assert c.peak == 150
        assert c.count == 3

    def test_release_clamps_at_zero(self):
        c = obs.counter("clamped")
        c.add(5)
        c.release(50)
        assert c.current == 0.0

    def test_counter_identity_by_name(self):
        assert obs.counter("same") is obs.counter("same")

    def test_gauge_tracks_peak(self):
        g = obs.gauge("loss")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0 and g.peak == 3.0


class TestExport:
    def test_json_round_trip(self, tmp_path):
        with obs.span("outer", epoch=0):
            obs.record_span("sim", 0.5)
        obs.counter("n.bytes").add(42)
        obs.gauge("depth").set(7)
        obs.event("pick", backend="fused")
        path = tmp_path / "trace.json"
        obs.export_json(str(path))
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.obs/3"
        names = {s["name"] for s in data["spans"]}
        assert names == {"outer", "sim"}
        assert any(s.get("simulated") for s in data["spans"])
        assert data["counters"]["n.bytes"]["total"] == 42
        assert data["events"][0]["attrs"]["backend"] == "fused"

    def test_summary_renders_all_sections(self):
        with obs.span("phase.a"):
            pass
        obs.counter("x.bytes").add(1024)
        obs.gauge("g").set(2.5)
        obs.event("ev")
        text = obs.render_summary(obs.to_dict())
        for fragment in ("phase.a", "x.bytes", "ev", "spans", "counters"):
            assert fragment in text

    def test_empty_summary(self):
        assert "no observability data" in obs.render_summary(obs.to_dict())


class TestEngineIntegration:
    def test_trace_stage_totals_agree_with_epoch_stats(self, ds, tmp_path):
        """Acceptance: per-stage span totals == EpochStats.times sums."""
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        history = eng.fit(Tensor(ds.features), ds.labels,
                          Adam(model.parameters(), 0.01), num_epochs=3,
                          mask=ds.train_mask)
        path = tmp_path / "trace.json"
        obs.export_json(str(path))
        trace = json.loads(path.read_text())

        view = StageTimes.from_spans(trace["spans"])
        for stage in STAGE_SPANS:
            expect = sum(getattr(stats.times, stage) for stats in history)
            assert getattr(view, stage) == pytest.approx(
                expect, rel=1e-9, abs=1e-12
            ), stage

    def test_epoch_span_parents_stage_spans(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph)
        eng.train_epoch(Tensor(ds.features), ds.labels,
                        Adam(model.parameters(), 0.01), ds.train_mask)
        spans = obs.get_registry().spans
        epoch_spans = [s for s in spans if s.name == "engine.train_epoch"]
        assert len(epoch_spans) == 1
        stage_spans = [s for s in spans if s.name in STAGE_SPANS.values()]
        assert stage_spans and all(
            s.parent == epoch_spans[0].id for s in stage_spans
        )

    def test_backend_events_reflect_strategy(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        feats = Tensor(ds.features)
        FlexGraphEngine(model, ds.graph, strategy="sa").forward(feats)
        backends_sa = {
            e.attrs["backend"] for e in obs.get_registry().events
            if e.name == BACKEND_EVENT
        }
        assert backends_sa == {"sparse"}
        obs.reset()
        FlexGraphEngine(model, ds.graph, strategy="ha").forward(feats)
        backends_ha = {
            e.attrs["backend"] for e in obs.get_registry().events
            if e.name == BACKEND_EVENT
        }
        assert "fused" in backends_ha and "sparse" not in backends_ha

    def test_materialized_counter_total_and_peak_in_trace(self, ds, tmp_path):
        """SA training materializes per-edge tensors; after backward the
        engine releases them, so peak tracks one epoch while total grows."""
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        eng = FlexGraphEngine(model, ds.graph, strategy="sa")
        opt = Adam(model.parameters(), 0.01)
        eng.fit(Tensor(ds.features), ds.labels, opt, num_epochs=3,
                mask=ds.train_mask)
        path = tmp_path / "trace.json"
        obs.export_json(str(path))
        counter = json.loads(path.read_text())["counters"][
            "scatter.materialized_bytes"
        ]
        assert counter["total"] > 0
        assert 0 < counter["peak"] <= counter["total"]
        # Three identical epochs, released after each backward: the peak
        # is one epoch's worth, i.e. well under the three-epoch total.
        assert counter["peak"] <= counter["total"] / 3 + 1e-9
        assert counter["current"] == 0.0


class TestDistributedIntegration:
    def test_comm_counters_match_epoch_stats(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        labels = hash_partition(ds.graph.num_vertices, 4)
        trainer = DistributedTrainer(model, ds.graph, labels)
        stats = trainer.train_epoch(Tensor(ds.features), ds.labels,
                                    Adam(model.parameters(), 0.01),
                                    ds.train_mask)
        bytes_counter = obs.counter("comm.bytes")
        msg_counter = obs.counter("comm.messages")
        assert bytes_counter.total == pytest.approx(stats.total_bytes)
        assert msg_counter.total == pytest.approx(stats.total_messages)

    def test_per_worker_spans_present(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        labels = hash_partition(ds.graph.num_vertices, 3)
        trainer = DistributedTrainer(model, ds.graph, labels)
        trainer.train_epoch(Tensor(ds.features), ds.labels,
                            Adam(model.parameters(), 0.01), ds.train_mask)
        spans = obs.get_registry().spans
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        layers = len(model.layers)
        assert len(by_name["dist.compute"]) == 3 * layers
        assert len(by_name["dist.comm"]) == 3 * layers
        assert all(s.simulated for s in by_name["dist.comm"])
        assert not any(s.simulated for s in by_name["dist.compute"])
        assert "dist.allreduce" in by_name and "dist.backward" in by_name

    def test_comm_span_totals_match_worker_seconds(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        labels = hash_partition(ds.graph.num_vertices, 4)
        trainer = DistributedTrainer(model, ds.graph, labels)
        stats = trainer.train_epoch(Tensor(ds.features), ds.labels,
                                    Adam(model.parameters(), 0.01),
                                    ds.train_mask)
        comm_total = sum(
            s.duration for s in obs.get_registry().spans if s.name == "dist.comm"
        )
        assert comm_total == pytest.approx(float(stats.comm_seconds.sum()))


class TestCLITrace:
    def test_train_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.json"
        rc = main(["train", "--model", "gcn", "--dataset", "reddit",
                   "--scale", "tiny", "--epochs", "2",
                   "--trace", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.obs/3"
        names = {s["name"] for s in data["spans"]}
        assert STAGE_SPANS["aggregation"] in names
        assert "scatter.materialized_bytes" in data["counters"]
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "spans (aggregated by name):" in out

    def test_distributed_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "dist.json"
        rc = main(["distributed", "--model", "gcn", "--dataset", "reddit",
                   "--scale", "tiny", "--workers", "2", "--epochs", "1",
                   "--trace", str(path)])
        assert rc == 0
        data = json.loads(path.read_text())
        assert "comm.bytes" in data["counters"]
        assert any(s["name"] == "dist.compute" for s in data["spans"])


class TestStageTimesView:
    def test_from_spans_accepts_records_and_dicts(self):
        with obs.span(STAGE_SPANS["aggregation"]):
            pass
        records = obs.get_registry().spans
        via_records = StageTimes.from_spans(records)
        from_dicts = StageTimes.from_spans([s.to_dict() for s in records])
        assert via_records.aggregation == from_dicts.aggregation > 0.0
        assert via_records.backward == 0.0

    def test_unrelated_spans_ignored(self):
        times = StageTimes.from_spans(
            [{"name": "something.else", "duration": 5.0}]
        )
        assert times.total == 0.0
