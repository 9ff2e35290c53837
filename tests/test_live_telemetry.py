"""Tests for the live telemetry plane: the TelemetrySlab and its
writer sink, stall detection (dead vs stalled vs slow), the one
cross-process merge with clock rebasing, and the k=2 end-to-end paths
(injected stall, clean-run zero-false-positive, coherent Chrome trace
lanes)."""

import json
import os
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.datasets import load_dataset
from repro.distributed import MultiprocessTrainer
from repro.graph import hash_partition
from repro.models import gcn
from repro.obs.export import to_chrome_trace, to_dict
from repro.obs.live import (
    ACTIVE_PHASES,
    PHASE_BARRIER,
    PHASE_DONE,
    PHASE_FORWARD,
    PHASE_IDLE,
    STALL_EVENT,
    StallDetector,
    TelemetrySlab,
    WorkerSample,
    in_active_phase,
    is_stalled,
    phase_name,
)
from repro.obs.metrics import Counter, Gauge
from repro.obs.registry import Record
from repro.tensor import Adam, Tensor

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import obsview  # noqa: E402


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


def _sample(rank=0, seqno=1, phase=PHASE_FORWARD, epoch=0, layer=0,
            last_beat=0.0, now=None):
    """A sample read at ``now`` off a row that last beat at
    ``last_beat``, as :meth:`TelemetrySlab.sample` computes it."""
    return WorkerSample(
        rank=rank, seqno=seqno, pid=123, epoch=epoch, layer=layer,
        phase=phase, spans_closed=0, flops=0.0, bytes=0.0,
        last_beat=last_beat,
        progress_age=(max(now - last_beat, 0.0)
                      if seqno and now is not None else None),
    )


def _phase(name, **ctx):
    """A phase record as the funnel hands it to a sink: stamped."""
    return Record("phase", name, ctx={"phase": name, **ctx})


# ----------------------------------------------------------------------
# TelemetrySlab units
# ----------------------------------------------------------------------
class TestTelemetrySlab:
    def test_writer_updates_fields_and_bumps_seqno(self):
        slab = TelemetrySlab(2)
        try:
            tele = slab.writer(1)
            s0 = slab.sample()[1]
            assert s0.seqno == 0 and s0.progress_age is None

            tele(_phase("forward", epoch=3, layer=1))
            s1 = slab.sample()[1]
            assert s1.seqno == 1
            assert s1.phase == PHASE_FORWARD and s1.phase_name == "forward"
            assert s1.epoch == 3 and s1.layer == 1
            assert s1.pid == os.getpid()
            assert s1.progress_age is not None and s1.progress_age >= 0.0

            # The row follows the stamp: a context without epoch keeps
            # the row's, one without layer means "between layers".
            tele(_phase("done"))
            s2 = slab.sample()[1]
            assert s2.seqno == 2
            assert s2.phase == PHASE_DONE and s2.epoch == 3 and s2.layer == -1

            # Any other record is a plain heartbeat.
            tele(Record("event", "anything"))
            assert slab.sample()[1].seqno == 3
            # Rank 0 never wrote: untouched.
            assert slab.sample()[0].seqno == 0
        finally:
            slab.close()

    def test_barrier_hook_sets_phase_then_beats(self):
        """The ProcessComm barrier, end to end through the funnel:
        entering is a phase transition, leaving needs no record of its
        own — the dist.comm span that follows beats."""
        from repro.distributed.comm import ProcessComm

        obs.reset()
        slab = TelemetrySlab(1)
        tele = slab.writer(0)
        obs.add_sink(tele)
        comm = ProcessComm(1)
        try:
            obs.phase("forward", epoch=1, layer=0)
            before = slab.sample()[0].seqno
            comm.barrier()
            entered = slab.sample()[0]
            assert entered.seqno == before + 1  # one record: the phase
            assert entered.phase == PHASE_BARRIER
            assert (entered.epoch, entered.layer) == (1, 0)  # position kept
            obs.record_span("dist.comm", 0.1, simulated=False)
            after = slab.sample()[0]
            assert after.seqno == entered.seqno + 1
            assert after.phase == PHASE_BARRIER  # phase unchanged by beat
        finally:
            obs.get_registry().remove_sink(tele)
            comm.close()
            slab.close()
            obs.clear_context()
            obs.reset()

    def test_progress_age_grows_with_supplied_now(self):
        slab = TelemetrySlab(1)
        try:
            tele = slab.writer(0)
            tele(_phase("forward"))
            now = slab.sample()[0].last_beat
            aged = slab.sample(now=now + 7.5)[0]
            assert aged.progress_age == pytest.approx(7.5, abs=1e-6)
        finally:
            slab.close()

    def test_descriptor_attach_sees_live_writes(self, tmp_path):
        slab = TelemetrySlab(2)
        try:
            path = str(tmp_path / "slab.json")
            slab.write_descriptor(path)
            with open(path) as fh:
                desc = json.load(fh)
            assert desc["schema"] == "repro.live-slab/1"
            other = TelemetrySlab.attach(desc)
            try:
                slab.writer(0)(_phase("forward", epoch=9))
                seen = other.sample()[0]
                assert seen.epoch == 9 and seen.phase == PHASE_FORWARD
            finally:
                other.close()  # non-owner: detach only
            assert slab.sample()[0].epoch == 9
        finally:
            slab.close()

    def test_snapshot_and_reset(self):
        slab = TelemetrySlab(2)
        try:
            slab.writer(0)(_phase("forward", epoch=1, layer=0))
            snap = slab.snapshot()
            assert snap["schema"] == "repro.live/1" and snap["k"] == 2
            assert snap["workers"][0]["phase_name"] == "forward"
            assert snap["workers"][1]["seqno"] == 0
            slab.reset()
            assert all(s.seqno == 0 for s in slab.sample())
        finally:
            slab.close()

    def test_sample_publish_exposes_live_gauges(self):
        obs.reset()
        slab = TelemetrySlab(1)
        try:
            slab.writer(0)(_phase("forward", epoch=2, layer=1))
            slab.sample(publish=True)
            reg = obs.get_registry()
            assert reg.gauge("live.worker.0.phase").value == PHASE_FORWARD
            assert reg.gauge("live.worker.0.epoch").value == 2
            assert reg.gauge("live.worker.0.heartbeat").value == 1
            assert reg.gauge("live.worker.0.progress_age").count == 1
        finally:
            slab.close()
            obs.reset()

    def test_phase_name_out_of_range(self):
        assert phase_name(99) == "?"
        assert phase_name(PHASE_IDLE) == "idle"


# ----------------------------------------------------------------------
# StallDetector units (fake clocks: fully deterministic)
# ----------------------------------------------------------------------
class TestStallDetector:
    def test_frozen_active_phase_flagged_once(self):
        det = StallDetector(deadline=5.0)
        beat = dict(seqno=4, last_beat=100.0)
        assert det.observe([_sample(**beat, now=100.0)]) == []
        assert det.observe([_sample(**beat, now=104.0)]) == []  # within deadline
        stalls = det.observe([_sample(**beat, now=106.0)])
        assert len(stalls) == 1
        ev = stalls[0]
        assert ev.rank == 0 and ev.phase == PHASE_FORWARD
        assert ev.stalled_seconds == pytest.approx(6.0)
        # Fires once per frozen seqno.
        assert det.observe([_sample(**beat, now=120.0)]) == []

    def test_rearms_after_heartbeat_resumes(self):
        det = StallDetector(deadline=1.0)
        det.observe([_sample(seqno=1, last_beat=0.0, now=0.0)])
        assert len(det.observe([_sample(seqno=1, last_beat=0.0, now=2.0)])) == 1
        # progress resumes -> re-arm -> a second freeze is a new episode
        assert det.observe([_sample(seqno=2, last_beat=3.0, now=3.0)]) == []
        assert det.observe([_sample(seqno=2, last_beat=3.0, now=3.5)]) == []
        assert len(det.observe([_sample(seqno=2, last_beat=3.0, now=5.0)])) == 1

    def test_slow_but_progressing_never_flagged(self):
        det = StallDetector(deadline=1.0)
        for i, t in enumerate([0.0, 10.0, 20.0, 30.0]):
            # seqno advances between every poll: slow, not stalled
            assert det.observe([_sample(seqno=i + 1, last_beat=t - 0.5,
                                        now=t)]) == []

    def test_waiting_phases_exempt(self):
        det = StallDetector(deadline=1.0)
        det.observe([_sample(seqno=3, phase=PHASE_BARRIER, now=0.0)])
        assert det.observe(
            [_sample(seqno=3, phase=PHASE_BARRIER, now=50.0)]) == []
        assert PHASE_BARRIER not in ACTIVE_PHASES

    def test_first_observation_judged_by_the_sample_clock(self):
        """The detector and obsview's STALLED? column read one clock,
        the sample's ``progress_age``: a fresh detector shown a row
        frozen in forward past the deadline flags it at once, and the
        telemetry table marks the same sample."""
        det = StallDetector(deadline=5.0)
        frozen = _sample(seqno=7, last_beat=10.0, now=30.0)
        stalls = det.observe([frozen])
        assert [(e.rank, e.stalled_seconds) for e in stalls] == [(0, 20.0)]
        row = obsview.render_telemetry([frozen], stall_deadline=5.0)
        assert row.splitlines()[1].endswith("STALLED?")

    def test_one_rule_for_enum_values_and_names(self):
        # The detector, the monitor (enum values off the slab) and the
        # post-mortem (names off the journals) share this predicate.
        for phase in (PHASE_FORWARD, "forward", "grad_reduce"):
            assert in_active_phase(phase)
            assert is_stalled(phase, 6.0, 5.0)
            assert not is_stalled(phase, 4.0, 5.0)
            assert not is_stalled(phase, None, 5.0)
        for phase in (PHASE_BARRIER, "barrier", "await_grad", "done",
                      "idle", None, "?"):
            assert not in_active_phase(phase)
            assert not is_stalled(phase, 60.0, 5.0)

    def test_never_started_worker_ignored(self):
        det = StallDetector(deadline=1.0)
        det.observe([_sample(seqno=0, now=0.0)])
        assert det.observe([_sample(seqno=0, now=100.0)]) == []

    def test_reset_forgets_tracking(self):
        det = StallDetector(deadline=1.0)
        frozen = [_sample(seqno=1, last_beat=0.0, now=100.0)]
        assert len(det.observe(frozen)) == 1
        assert det.observe(frozen) == []
        det.reset()
        # After reset the same frozen seqno is a new episode.
        assert len(det.observe(frozen)) == 1

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            StallDetector(deadline=0.0)


# ----------------------------------------------------------------------
# cross-process merge primitives
# ----------------------------------------------------------------------
class TestMergeDict:
    def test_counter_merge_adds_totals_maxes_peak(self):
        a = Counter("c")
        a.add(3.0)
        b = Counter("c")
        b.add(10.0)
        b.add(-6.0)  # current 4, peak 10
        a.merge_dict(b.to_dict())
        assert a.total == pytest.approx(7.0)
        assert a.current == pytest.approx(7.0)
        assert a.count == 3
        assert a.peak == pytest.approx(10.0)

    def test_gauge_merge_adopts_value_and_peak(self):
        a = Gauge("g")
        a.set(2.0)
        b = Gauge("g")
        b.set(9.0)
        b.set(1.0)
        a.merge_dict(b.to_dict())
        assert a.value == 1.0 and a.peak == 9.0 and a.count == 3
        # never-set incoming gauge is a no-op
        a.merge_dict(Gauge("g").to_dict())
        assert a.value == 1.0 and a.count == 3


class TestMergeSpans:
    def _worker_snapshot(self, reg, offset):
        """What a rank-1 worker ships: records stamped by its context,
        times counted from its own origin (``offset`` after ours)."""
        ctx = {"worker": 1, "epoch": 0}
        return {
            "origin": reg.origin + offset,
            "spans": [
                {"kind": "span", "name": "dist.compute", "t": 0.5,
                 "duration": 0.2, "depth": 1, "id": 7, "parent": 3,
                 "attrs": {"layer": 0}, "ctx": ctx},
                {"kind": "span", "name": "dist.epoch", "t": 0.4,
                 "duration": 0.9, "depth": 0, "id": 3, "ctx": ctx},
            ],
            "events": [{"kind": "event", "name": "worker.note", "t": 0.25,
                        "attrs": {"detail": "x"}, "ctx": ctx}],
            "counters": {"plan.cache.hit": {"total": 5.0, "current": 5.0,
                                            "peak": 5.0, "count": 5}},
            "gauges": {},
        }

    def test_rebase_rank_depth_and_parent_remap(self):
        obs.reset()
        reg = obs.get_registry()
        with obs.span("parent.own"):     # takes a local id first
            pass
        reg.merge(self._worker_snapshot(reg, offset=10.0))
        child = next(s for s in reg.spans if s.name == "dist.compute")
        parent = next(s for s in reg.spans if s.name == "dist.epoch")
        assert child.t == pytest.approx(10.5)
        assert parent.t == pytest.approx(10.4)
        assert child.depth == 1 and parent.depth == 0
        assert child.get("worker") == 1 and parent.get("worker") == 1
        assert child.attrs["layer"] == 0  # caller attrs preserved
        # parent/child linkage survives the id remap
        assert child.parent == parent.id
        assert child.id != 7  # remapped into the parent's id space
        assert len({s.id for s in reg.spans}) == 3
        obs.reset()

    def test_disabled_merge_is_total_noop(self):
        obs.reset()
        reg = obs.get_registry()
        records_only = self._worker_snapshot(reg, offset=0.0)
        del records_only["counters"], records_only["gauges"]
        obs.disable()
        try:
            reg.merge(records_only)
        finally:
            obs.enable()
        # records respect ``enabled`` (counters, O(1), always merge)
        assert reg.spans == [] and reg.events == []
        assert reg.counters == {} and reg.dropped_spans == 0
        obs.reset()

    def test_merge_metrics_folds_counters_and_rebases_events(self):
        obs.reset()
        reg = obs.get_registry()
        reg.counter("plan.cache.hit").add(2)
        reg.merge(self._worker_snapshot(reg, offset=100.0))
        assert reg.counter("plan.cache.hit").total == pytest.approx(7.0)
        ev = next(e for e in reg.events if e.name == "worker.note")
        assert ev.t == pytest.approx(100.25)
        assert ev.get("worker") == 1
        reg.merge(None)  # missing snapshot: harmless no-op
        obs.reset()


# ----------------------------------------------------------------------
# k=2 end to end: injected stall, clean run, coherent trace
# ----------------------------------------------------------------------
class TestMultiprocessLiveTelemetry:
    def _trainer(self, ds, seed=5, **kw):
        part = hash_partition(ds.graph.num_vertices, 2)
        return MultiprocessTrainer(
            gcn(ds.feat_dim, 8, ds.num_classes, seed=seed), ds.graph, part,
            seed=0, **kw,
        )

    def test_injected_stall_detected_with_rank_and_phase(self, ds):
        obs.reset()
        mt = self._trainer(ds, stall_deadline=0.5)
        try:
            feats = Tensor(ds.features)
            opt = Adam(mt.model.parameters(), 0.01)
            mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=0)
            assert mt.stall_events == []

            mt.inject_stall(1, seconds=2.5)
            stats = mt.train_epoch(feats, ds.labels, opt, ds.train_mask,
                                   epoch=1)
            # The stall is finite: the epoch still completes.
            assert np.isfinite(stats.loss)
            assert [e.rank for e in mt.stall_events] == [1]
            ev = mt.stall_events[0]
            assert ev.phase == PHASE_FORWARD and ev.epoch == 1
            assert ev.stalled_seconds > mt.stall_deadline

            # ... and it surfaced as an obs event naming rank/layer/phase.
            reg = obs.get_registry()
            stall_evs = [e for e in reg.events if e.name == STALL_EVENT]
            assert len(stall_evs) == 1
            attrs = stall_evs[0].attrs
            assert attrs["worker"] == 1 and attrs["phase"] == "forward"
            assert attrs["epoch"] == 1 and "layer" in attrs

            # rank 0 froze too (parked at the barrier) but is the victim,
            # not the culprit: never flagged.
            assert all(e.rank != 0 for e in mt.stall_events)
        finally:
            mt.close()
        obs.reset()

    def test_clean_run_zero_stalls_and_coherent_trace(self, ds):
        obs.reset()
        mt = self._trainer(ds, seed=6)
        try:
            feats = Tensor(ds.features)
            opt = Adam(mt.model.parameters(), 0.01)
            for epoch in range(2):
                mt.train_epoch(feats, ds.labels, opt, ds.train_mask,
                               epoch=epoch)
            assert mt.stall_events == []
            reg = obs.get_registry()
            assert not any(e.name == STALL_EVENT for e in reg.events)

            # Live snapshot: every rank heartbeat and reached "done".
            snap = mt.telemetry.snapshot()
            assert len(snap["workers"]) == 2
            for w in snap["workers"]:
                assert w["seqno"] > 0
                assert w["phase_name"] == "done"
                assert w["epoch"] == 1

            # Clock coherence: every rebased worker span starts at a
            # non-negative parent-clock time, and per rank the epoch-1
            # window begins after the epoch-0 window ends.
            per_rank: dict[int, dict[int, list]] = {0: {}, 1: {}}
            for s in reg.spans:
                rank = s.get("worker")
                epoch = s.get("epoch")
                if rank in (0, 1) and epoch in (0, 1):
                    assert s.t >= 0.0, f"negative rebased start: {s}"
                    per_rank[rank].setdefault(epoch, []).append(s)
            for rank, by_epoch in per_rank.items():
                assert set(by_epoch) == {0, 1}, f"rank {rank} missing epochs"
                end_e0 = max(s.t + s.duration for s in by_epoch[0])
                start_e1 = min(s.t for s in by_epoch[1])
                assert start_e1 >= end_e0, (
                    f"rank {rank}: epoch windows overlap after rebase"
                )

            # One coherent Chrome trace: a lane per rank, shared trace id.
            trace = to_chrome_trace(to_dict())
            assert trace["otherData"]["trace_id"] == reg.trace_id
            lanes = {e["tid"] for e in trace["traceEvents"]
                     if e.get("ph") == "X" and e.get("pid") == 0}
            assert {0, 1} <= lanes
            names = [e for e in trace["traceEvents"]
                     if e.get("name") == "thread_name"]
            labelled = {e["args"]["name"] for e in names}
            assert {"rank 0", "rank 1"} <= labelled

            # Worker metric snapshots were merged, not dropped: the
            # parent sees worker-side profiler counters ...
            assert reg.counter("profile.flops").total > 0
            # ... and every worker-side record kind, stamped by the
            # worker's context: phases, the epoch-start log line and the
            # per-epoch metrics sample ride in the same merge.
            for kind in ("phase", "log", "metrics"):
                ranks = {e.get("worker") for e in reg.events
                         if e.kind == kind}
                assert ranks == {0, 1}, kind
        finally:
            mt.close()
        obs.reset()

    def test_monitor_renders_live_slab_and_snapshot(self, ds, tmp_path,
                                                    capsys):
        obs.reset()
        mt = self._trainer(ds, seed=8)
        try:
            feats = Tensor(ds.features)
            opt = Adam(mt.model.parameters(), 0.01)
            mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=0)

            # one table over live samples and over a snapshot (the
            # telemetry section of an incident bundle) alike
            now = time.monotonic()
            table = obsview.render_telemetry(mt.telemetry.sample(now=now))
            assert "done" in table and " ok" in table
            snap = json.loads(json.dumps(mt.telemetry.snapshot(now=now)))
            assert obsview.render_telemetry(snap["workers"]) == table

            # live: descriptor attach, one sample
            desc_path = str(tmp_path / "slab.json")
            mt.telemetry.write_descriptor(desc_path)
            assert obsview.main(["live", desc_path]) == 0
            out = capsys.readouterr().out
            assert "live telemetry" in out and "done" in out
        finally:
            mt.close()
        obs.reset()
