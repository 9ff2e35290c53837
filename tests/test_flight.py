"""Flight recorder, the funnel, incident bundles, post-mortem.

Covers the black-box plane end to end: journal mechanics, the
recorder as a sink surviving ``obs.reset()``, the funnel itself (every
record exactly once per sink, one context stamp, one serialisation,
envelope collisions), log lines folding into the trace, the store's
record cap + ``dropped_events`` accounting (including ``merge`` folding
a worker snapshot into a near-cap parent), incident-bundle contents,
serve per-request tracing + SLO snapshots, and the real k=2 crash/stall
paths with ``tools/obsview.py incident`` naming culprits and victims.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import obsview  # noqa: E402

from repro import obs  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.distributed import MultiprocessTrainer, runtime  # noqa: E402
from repro.distributed.fault_tolerance import (  # noqa: E402
    FaultTolerantTrainer,
    WorkerFailure,
)
from repro.graph import hash_partition  # noqa: E402
from repro.models import gcn  # noqa: E402
from repro.obs.flight import (  # noqa: E402
    FlightRecorder,
    install_flight,
    latest_incident,
    read_journal,
    uninstall_flight,
    write_incident_bundle,
)
from repro.obs.live import PHASE_FORWARD, TelemetrySlab  # noqa: E402
from repro.obs.registry import Record, Registry  # noqa: E402
from repro.serve import GNNServer, InferenceSession  # noqa: E402
from repro.tensor import Adam, Tensor  # noqa: E402


def _uninstall_and_close():
    recorder = uninstall_flight()
    if recorder is not None:
        recorder.close()


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    _uninstall_and_close()
    obs.clear_context()
    yield
    _uninstall_and_close()
    obs.clear_context()
    obs.reset()


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


def _tick(i: int) -> Record:
    return Record("event", "tick", float(i), attrs={"i": i})


def _recorder(tmp_path, who: str = "x") -> FlightRecorder:
    return FlightRecorder(str(tmp_path / f"journal-{who}.jsonl"))


# ----------------------------------------------------------------------
# FlightRecorder mechanics
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_journal_spill_and_readback(self, tmp_path):
        path = str(tmp_path / "journal-x.jsonl")
        rec = FlightRecorder(path)
        records = [_tick(i) for i in range(4)]
        for record in records:
            rec(record)
        rec.close()
        # The journal keeps every record, one Record.to_dict() per line.
        assert read_journal(path) == [r.to_dict() for r in records]

    def test_journal_tolerates_truncated_tail(self, tmp_path):
        path = str(tmp_path / "journal-y.jsonl")
        rec = FlightRecorder(journal_path=path)
        rec(_tick(0))
        rec.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "event", "name": "tick", "t": 1')  # killed mid-write
        entries = read_journal(path)
        assert [e["attrs"]["i"] for e in entries] == [0]

    def test_crash_record_is_last(self, tmp_path):
        path = str(tmp_path / "journal-z.jsonl")
        install_flight(FlightRecorder(journal_path=path))
        obs.event("tick")
        obs.crash("test", "Traceback: boom")
        # No close(), no drain tick: the crash record drained the queue
        # before obs.crash returned (the caller's next line is os._exit).
        entries = read_journal(path)
        assert entries[-1]["kind"] == "crash"
        assert entries[-1]["name"] == "test"
        assert "boom" in entries[-1]["attrs"]["traceback"]
        assert [e["kind"] for e in entries] == ["clock", "event", "crash"]
        uninstall_flight().close()

    def test_numpy_attrs_journal_cleanly(self, tmp_path):
        path = str(tmp_path / "journal-np.jsonl")
        rec = FlightRecorder(journal_path=path)
        rec(Record("event", "tick", attrs={"value": np.float64(1.5),
                                           "ids": np.arange(3)}))
        rec.close()
        (entry,) = read_journal(path)
        assert entry["attrs"] == {"value": 1.5, "ids": [0, 1, 2]}


# ----------------------------------------------------------------------
# The recorder as a sink of the registry
# ----------------------------------------------------------------------
def _journaled(rec: FlightRecorder) -> list[dict]:
    """Everything the recorder has journaled so far, read back."""
    rec.flush()
    return read_journal(rec.journal_path)


def _records(rec: FlightRecorder) -> list[dict]:
    """The journal, the clock announcements left out."""
    return [e for e in _journaled(rec) if e["kind"] != "clock"]


def _kinds(rec: FlightRecorder) -> list[str]:
    return [e["kind"] for e in _records(rec)]


class TestRegistryTap:
    def test_span_and_event_forwarded(self, tmp_path):
        rec = install_flight(_recorder(tmp_path))
        with obs.span("work", layer=1):
            pass
        obs.event("picked", backend="fa")
        assert _kinds(rec) == ["span", "event"]
        span = _journaled(rec)[1]
        assert span["name"] == "work"
        assert span["attrs"] == {"layer": 1}

    def test_tap_survives_reset(self, tmp_path):
        rec = install_flight(_recorder(tmp_path))
        obs.reset()
        assert obs.get_flight() is rec
        with obs.span("after"):
            pass
        assert _journaled(rec)[-1]["name"] == "after"

    def test_every_origin_is_announced(self, tmp_path):
        # Record times count from an origin that moves at every reset;
        # the recorder is told each one, so journal lines stay placeable.
        rec = install_flight(_recorder(tmp_path))
        obs.reset()
        clocks = [e for e in _journaled(rec) if e["kind"] == "clock"]
        assert len(clocks) == 2
        assert clocks[-1]["attrs"]["origin"] == obs.get_registry().origin

    def test_tap_sees_past_disabled_registry(self, tmp_path):
        rec = install_flight(_recorder(tmp_path))
        obs.disable()
        try:
            with obs.span("hidden"):
                pass
            obs.event("hidden.event")
        finally:
            obs.enable()
        reg = obs.get_registry()
        assert not reg.spans and not reg.events
        assert _kinds(rec) == ["span", "event"]

    def test_uninstall_stops_forwarding(self, tmp_path):
        rec = install_flight(_recorder(tmp_path))
        assert uninstall_flight() is rec
        obs.event("afterwards")
        assert _kinds(rec) == []
        rec.close()

    @pytest.mark.parametrize("simulated", [False, True])
    def test_store_and_journal_agree_on_span_start(self, simulated, tmp_path):
        # Regression: a measured record_span was backdated only after
        # the recorder had been handed it, so every barrier wait and
        # request latency was journaled ``duration`` seconds late.
        rec = install_flight(_recorder(tmp_path))
        time.sleep(0.05)
        stored = obs.record_span("dist.comm", 0.04, simulated=simulated)
        journaled = _journaled(rec)[-1]
        assert journaled["t"] == stored.t
        assert journaled == stored.to_dict()
        if not simulated:
            assert stored.t + 0.04 <= obs.get_registry().now()


# ----------------------------------------------------------------------
# The funnel: one record, once per sink, one stamp, one serialisation
# ----------------------------------------------------------------------
class TestFunnel:
    def test_each_record_reaches_each_sink_exactly_once(self, tmp_path):
        path = str(tmp_path / "journal-rank3.jsonl")
        slab = TelemetrySlab(4)
        writer = slab.writer(3)
        reg = obs.get_registry()
        try:
            obs.set_context(worker=3)
            rec = install_flight(FlightRecorder(path))
            obs.add_sink(writer)
            beats0 = slab.sample()[3].seqno

            obs.phase("forward", epoch=2, layer=1)
            with obs.span("dist.compute", pid=1):
                pass
            obs.event("picked", backend="fa")
            obs.log("aggregated", vertices=17)
            obs.sample_metrics()

            expected = ["phase", "span", "event", "log", "metrics"]
            # the flight recorder: every record, once
            rec.close()
            journal = [e for e in read_journal(path) if e["kind"] != "clock"]
            assert [e["kind"] for e in journal] == expected
            # the store: the span under spans, the rest under events
            assert [s.kind for s in reg.spans] == ["span"]
            assert [e.kind for e in reg.events] == [
                "phase", "event", "log", "metrics"]
            # the slab writer: one heartbeat per record, row at the phase
            row = slab.sample()[3]
            assert row.seqno - beats0 == len(expected)
            assert (row.phase, row.epoch, row.layer) == (PHASE_FORWARD, 2, 1)

            # identical context stamps everywhere
            stamp = {"worker": 3, "phase": "forward", "epoch": 2, "layer": 1}
            assert all(e["ctx"] == stamp for e in journal)
            assert all(r.ctx == stamp for r in reg.spans + reg.events)

            # one serialisation: journal == trace export == merge
            trace_path = str(tmp_path / "trace.json")
            obs.export_json(trace_path)
            with open(trace_path) as fh:
                trace = json.load(fh)
            by_time = sorted(trace["spans"] + trace["events"],
                             key=lambda r: (r["t"], r["kind"] == "span"))
            assert by_time == sorted(
                journal, key=lambda r: (r["t"], r["kind"] == "span"))
            assert all(Record.from_dict(e).to_dict() == e for e in journal)
            parent = Registry()
            snapshot = reg.snapshot()
            snapshot["origin"] = parent.origin    # same clock: no rebase
            parent.merge(snapshot)
            merged = [r.to_dict() for r in parent.spans + parent.events]
            assert merged == [r.to_dict() for r in reg.spans + reg.events]
        finally:
            reg.remove_sink(writer)
            slab.close()

    @pytest.mark.parametrize("field", ["kind", "name", "t", "message",
                                       "duration", "ctx", "attrs", "self"])
    def test_caller_fields_cannot_collide_with_the_envelope(self, field,
                                                             tmp_path):
        # Regression: get_logger("x").info("hello", kind="oops") raised
        # TypeError with a recorder installed; name= / message= raised
        # without one.  A worker's last log line must not be able to
        # take the worker down.
        rec = install_flight(_recorder(tmp_path))
        obs.set_context(worker=1)
        extra = {field: "oops"}
        with obs.span("s", **extra):
            pass
        obs.record_span("rs", 0.5, **extra)
        obs.event("e", **extra)
        obs.log("hello", **extra)
        journal = _records(rec)
        assert [(e["kind"], e["name"]) for e in journal] == [
            ("span", "s"), ("span", "rs"), ("event", "e"), ("log", "hello")]
        for entry in journal:
            assert entry["attrs"][field] == "oops"
            assert entry["ctx"] == {"worker": 1}
            assert isinstance(entry["t"], float)


# ----------------------------------------------------------------------
# Log lines
# ----------------------------------------------------------------------
class TestStructuredLog:
    def test_context_and_span_stamped(self, tmp_path):
        rec = install_flight(_recorder(tmp_path))
        obs.set_context(worker=3, epoch=2)
        with obs.span("dist.compute", layer=0):
            obs.log("aggregated", vertices=17)
        # journaled exactly once, as a log record
        (entry,) = [e for e in _journaled(rec) if e["kind"] == "log"]
        assert entry["name"] == "aggregated"
        assert entry["ctx"] == {"worker": 3, "epoch": 2}
        assert entry["attrs"] == {"vertices": 17, "span": "dist.compute",
                                  "level": "info"}

    def test_folds_into_registry_events(self):
        obs.log("watch out", level="warning", code=7)
        (record,) = obs.get_registry().events
        assert record.kind == "log" and record.name == "watch out"
        assert record.attrs == {"code": 7, "level": "warning"}

    def test_clear_context(self):
        obs.set_context(worker=1, epoch=5)
        obs.set_context(epoch=None)          # None removes one key
        obs.log("x")
        assert obs.get_registry().events[-1].ctx == {"worker": 1}
        obs.clear_context()
        obs.log("y")
        assert obs.get_registry().events[-1].ctx == {}

    def test_context_survives_reset(self):
        # A worker resets its registry every epoch but stays the same rank.
        obs.set_context(worker=2)
        obs.reset()
        obs.event("e")
        assert obs.get_registry().events[-1].get("worker") == 2


# ----------------------------------------------------------------------
# The store's record cap + dropped_events
# ----------------------------------------------------------------------
class TestEventRecordCap:
    def test_event_cap_and_dropped_accounting(self):
        reg = Registry(max_records=3)
        for i in range(5):
            reg.event("e", i=i)
        assert len(reg.events) == 3
        assert reg.dropped_events == 2
        assert [e.attrs["i"] for e in reg.events] == [0, 1, 2]

    def test_merge_metrics_into_near_cap_parent(self):
        # Worker snapshot with 4 events folds into a parent that has
        # room for exactly 2 more: 2 stored, 2 dropped-and-counted.
        worker = Registry()
        worker.set_context(worker=1)
        for i in range(4):
            worker.event("w", i=i)
        snapshot = worker.snapshot()

        parent = Registry(max_records=5)
        for i in range(3):
            parent.event("p", i=i)
        parent.merge(snapshot)
        assert len(parent.events) == 5
        assert parent.dropped_events == 2
        merged = [e for e in parent.events if e.name == "w"]
        assert [e.attrs["i"] for e in merged] == [0, 1]
        assert all(e.get("worker") == 1 for e in merged)

    def test_merge_metrics_disabled_parent_skips_events(self):
        worker = Registry()
        worker.event("w")
        worker.counter("c").add(2)
        parent = Registry()
        parent.enabled = False
        parent.merge(worker.snapshot())
        # O(1) aggregates always merge; records respect enabled.
        assert parent.counter("c").total == 2
        assert parent.events == []

    def test_flight_sees_events_past_cap(self, tmp_path):
        reg = Registry(max_records=1)
        rec = _recorder(tmp_path)
        reg.add_sink(rec)
        reg.event("a")
        reg.event("b")
        rec.close()
        assert reg.dropped_events == 1
        assert [e["name"] for e in read_journal(rec.journal_path)
                if e["kind"] == "event"] == ["a", "b"]


# ----------------------------------------------------------------------
# Incident bundles
# ----------------------------------------------------------------------
class TestIncidentBundle:
    def test_bundle_contents_and_manifest(self, tmp_path):
        flight_dir = str(tmp_path)
        install_flight(FlightRecorder(
            os.path.join(flight_dir, "journal-rank0.jsonl")))
        with obs.span("work"):
            pass
        bundle = write_incident_bundle(
            flight_dir, "test_kind", rank=0, reason="because",
            config={"k": 2}, sections={"stalls": {"events": []}})
        # The manifest, the native trace, the journals and the sections:
        # nothing else.
        assert sorted(os.listdir(bundle)) == [
            "journal-rank0.jsonl", "manifest.json", "stalls.json",
            "trace.json"]
        with open(os.path.join(bundle, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["kind"] == "test_kind"
        assert manifest["rank"] == 0
        assert manifest["reason"] == "because"
        assert manifest["config"] == {"k": 2}
        assert sorted(manifest["files"]) == [
            "journal-rank0.jsonl", "stalls.json", "trace.json"]
        with open(os.path.join(bundle, "trace.json")) as fh:
            trace = json.load(fh)
        assert trace["schema"] == "repro.obs/3"
        assert [s["name"] for s in trace["spans"]] == ["work"]
        journal = read_journal(os.path.join(bundle, "journal-rank0.jsonl"))
        assert [e["name"] for e in journal if e["kind"] == "span"] == ["work"]

    def test_bundle_copies_the_recorders_journal_from_elsewhere(
            self, tmp_path):
        flight_dir = str(tmp_path / "flight")
        os.makedirs(flight_dir)
        install_flight(FlightRecorder(
            str(tmp_path / "elsewhere" / "journal-parent.jsonl")))
        obs.event("before the incident")
        bundle = write_incident_bundle(flight_dir, "test_kind")
        journal = read_journal(os.path.join(bundle, "journal-parent.jsonl"))
        assert [e["name"] for e in journal if e["kind"] == "event"] == [
            "before the incident"]

    def test_latest_incident_picks_newest(self, tmp_path):
        flight_dir = str(tmp_path)
        write_incident_bundle(flight_dir, "first")
        second = write_incident_bundle(flight_dir, "second")
        manifest = latest_incident(flight_dir)
        assert manifest["kind"] == "second"
        assert manifest["path"] == second

    def test_latest_incident_empty_dir(self, tmp_path):
        assert latest_incident(str(tmp_path)) is None
        assert latest_incident(str(tmp_path / "missing")) is None

    def test_monitor_incident_line(self, tmp_path):
        flight_dir = str(tmp_path)
        assert obsview.last_incident(None) is None
        assert "none" in obsview.last_incident(flight_dir)
        bundle = write_incident_bundle(flight_dir, "worker_failure", rank=1)
        line = obsview.last_incident(flight_dir)
        assert "worker_failure" in line
        assert "rank 1" in line
        assert bundle in line


# ----------------------------------------------------------------------
# Serve: per-request tracing + SLO snapshot
# ----------------------------------------------------------------------
class TestServeTracing:
    @pytest.fixture(scope="class")
    def session(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        return InferenceSession(model, ds.graph, ds.features)

    def test_request_ids_on_spans(self, session):
        with GNNServer(session, num_workers=1, max_delay=0.0) as server:
            server.predict(np.array([0, 1]))
            server.predict(np.array([2]))
        reg = obs.get_registry()
        request_spans = [s for s in reg.spans if s.name == "serve.request"]
        batch_spans = [s for s in reg.spans if s.name == "serve.batch"]
        assert request_spans and batch_spans
        req_ids = {s.attrs["request_id"] for s in request_spans}
        assert len(req_ids) == len(request_spans)  # unique per request
        batched_ids = {rid for s in batch_spans
                       for rid in s.attrs["request_ids"]}
        assert req_ids == batched_ids  # propagated through coalescing

    def test_slo_breach_writes_bundle(self, session, tmp_path):
        flight_dir = str(tmp_path)
        server = GNNServer(session, num_workers=1, max_delay=0.0,
                           flight_dir=flight_dir, slo_p99_ms=0.0,
                           snapshot_interval=0.0)
        with server:
            server.predict(np.array([0]))
        summary = server.slo_summary()
        assert summary["window"]["p99_ms"] > 0.0
        manifest = latest_incident(flight_dir)
        assert manifest is not None
        assert manifest["kind"] == "slo_breach"
        with open(os.path.join(manifest["path"], "slo.json")) as fh:
            slo = json.load(fh)
        assert slo["window"]["requests"] >= 1
        assert "requests.json" in manifest["files"]

    def test_no_bundle_without_breach(self, session, tmp_path):
        flight_dir = str(tmp_path)
        server = GNNServer(session, num_workers=1, max_delay=0.0,
                           flight_dir=flight_dir, slo_p99_ms=1e9,
                           snapshot_interval=0.0)
        with server:
            server.predict(np.array([0]))
        server.slo_summary()
        assert latest_incident(flight_dir) is None


# ----------------------------------------------------------------------
# Post-mortem analyzer (synthetic bundle)
# ----------------------------------------------------------------------
class TestPostmortemSynthetic:
    def _bundle(self, tmp_path, stalled=()):
        flight_dir = str(tmp_path)
        # Hand-written journals: rank 1 froze mid-forward, rank 0 parked
        # at the barrier waiting for it.
        def ctx(rank, phase):
            return {"worker": rank, "phase": phase, "epoch": 4, "layer": 1}

        with open(os.path.join(flight_dir, "journal-rank0.jsonl"), "w") as fh:
            for t, phase in ((1.0, "forward"), (2.0, "barrier")):
                fh.write(json.dumps(Record(
                    "phase", phase, t, ctx=ctx(0, phase)).to_dict()) + "\n")
        with open(os.path.join(flight_dir, "journal-rank1.jsonl"), "w") as fh:
            fh.write(json.dumps(Record(
                "log", "working", 1.0, attrs={"level": "info"},
                ctx=ctx(1, "forward")).to_dict()) + "\n")
        return obsview.load_bundle(write_incident_bundle(
            flight_dir, "worker_stalled", rank=1,
            sections={"stalls": {"deadline": 0.5, "events": [
                {"rank": r, "epoch": 4, "layer": 1, "phase": 2,
                 "phase_name": "forward", "stalled_seconds": 1.0}
                for r in stalled
            ]}}))

    def test_waiting_phase_exemption(self, tmp_path):
        bundle = self._bundle(tmp_path, stalled=(1,))
        analysis = obsview.analyze(bundle)
        assert analysis["culprits"] == [1]
        assert analysis["victims"] == [0]
        rank0 = analysis["ranks"][0]
        assert rank0["role"] == "victim"
        assert rank0["last_phase"] == "barrier"
        rank1 = analysis["ranks"][1]
        assert rank1["role"] == "culprit"
        assert rank1["last_phase"] == "forward"
        assert rank1["last_epoch"] == 4
        assert rank1["last_layer"] == 1

    def test_render_names_roles(self, tmp_path):
        bundle = self._bundle(tmp_path, stalled=(1,))
        text = obsview.render_incident(obsview.analyze(bundle), bundle,
                                       last=5)
        assert "rank 1: CULPRIT" in text
        assert "rank 0: VICTIM" in text
        assert "timeline" in text


# ----------------------------------------------------------------------
# Real k=2 incident paths
# ----------------------------------------------------------------------
class TestMultiprocessIncidents:
    def test_inject_failure_bundle_and_postmortem(self, ds, tmp_path):
        flight_dir = str(tmp_path)
        part = hash_partition(ds.graph.num_vertices, 2)
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        feats = Tensor(ds.features)
        with MultiprocessTrainer(model, ds.graph, part, seed=0,
                                 flight_dir=flight_dir) as trainer:
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, 0)
            trainer.inject_failure(1)
            with pytest.raises(WorkerFailure) as exc_info:
                trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, 1)
            failure = exc_info.value
            assert failure.worker_id == 1
            assert failure.bundle is not None
            assert os.path.isdir(failure.bundle)

            # The dead rank's journal made it into the bundle, ending
            # with its final log line and the traceback.
            journal = read_journal(
                os.path.join(failure.bundle, "journal-rank1.jsonl"))
            kinds = [e["kind"] for e in journal]
            assert "span" in kinds
            assert "log" in kinds
            assert kinds[-1] == "crash"
            assert journal[-1]["name"] == "injected_failure"
            assert "traceback" in journal[-1]["attrs"]
            logs = [e for e in journal if e["kind"] == "log"]
            assert logs[-1]["name"] == "worker dying"
            assert all(e["ctx"]["worker"] == 1 for e in journal)

            # The incident reader names the failed rank as culprit.
            analysis = obsview.analyze(obsview.load_bundle(failure.bundle))
            assert analysis["manifest"]["kind"] == "worker_failure"
            assert analysis["manifest"]["rank"] == 1
            assert 1 in analysis["culprits"]
            rank1 = analysis["ranks"][1]
            assert rank1["crash"] is not None
            assert rank1["last_phase"] is not None
            assert rank1["last_epoch"] is not None

    def test_inject_stall_bundle_ranks_culprit(self, ds, tmp_path, capsys):
        flight_dir = str(tmp_path)
        part = hash_partition(ds.graph.num_vertices, 2)
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        feats = Tensor(ds.features)
        with MultiprocessTrainer(model, ds.graph, part, seed=0,
                                 stall_deadline=0.5,
                                 flight_dir=flight_dir) as trainer:
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, 0)
            trainer.inject_stall(1, seconds=2.5)
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, 1)
            assert trainer.stall_events
        manifest = latest_incident(flight_dir)
        assert manifest is not None
        assert manifest["kind"] == "worker_stalled"
        assert manifest["rank"] == 1
        # The bundle records each rank's BLAS thread budget.
        budget = max(1, len(os.sched_getaffinity(0)) // 2)
        assert manifest["config"]["blas_threads"] == (
            budget if runtime._loaded_blas() is not None else None)
        # The bundle: manifest, the parent's native trace, the journals
        # and its sections — no ring dump, no metrics snapshot.
        names = set(os.listdir(manifest["path"]))
        assert names == {"manifest.json", "trace.json", "telemetry.json",
                         "stalls.json", "journal-parent.jsonl",
                         "journal-rank0.jsonl", "journal-rank1.jsonl"}
        with open(os.path.join(manifest["path"], "trace.json")) as fh:
            assert json.load(fh)["schema"] == "repro.obs/3"
        analysis = obsview.analyze(obsview.load_bundle(manifest["path"]))
        assert analysis["culprits"] == [1]
        assert analysis["victims"] == [0]
        assert analysis["ranks"][1]["last_phase"] == "forward"
        assert analysis["ranks"][0]["last_phase"] == "barrier"

        # The report: the telemetry section's table flags the stalled
        # rank, and the ranking puts it first among the culprits.
        assert obsview.main(["incident", manifest["path"]]) == 0
        out = capsys.readouterr().out
        table = out.split("telemetry at the incident", 1)[1]
        table = table.split("culprit-vs-victim", 1)[0]
        rows = {line.split()[0]: line for line in table.splitlines()[2:]
                if line.strip()}
        assert rows["1"].endswith("STALLED?")
        assert rows["0"].endswith(" ok")
        ranking = out.split("culprit-vs-victim ranking", 1)[1]
        assert ranking.splitlines()[1].startswith("  rank 1: CULPRIT")

    def test_fault_tolerant_trainer_attaches_bundle(self, ds, tmp_path):
        flight_dir = str(tmp_path / "flight")
        part = hash_partition(ds.graph.num_vertices, 2)
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        feats = Tensor(ds.features)
        with MultiprocessTrainer(model, ds.graph, part, seed=0,
                                 flight_dir=flight_dir) as trainer:
            ft = FaultTolerantTrainer(trainer, str(tmp_path / "ckpt"),
                                      interval=1)
            history = ft.train(feats, ds.labels, opt, 3,
                               mask=ds.train_mask,
                               failure_schedule={1: 0})
            assert len(history) == 3
            assert len(ft.recoveries) == 1
            recovery = ft.recoveries[0]
            assert recovery.worker_id == 0
            assert recovery.bundle is not None
            assert os.path.isdir(recovery.bundle)
