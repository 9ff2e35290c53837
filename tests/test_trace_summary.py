"""Tests for tools/trace_summary.py over a real engine-run trace."""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import trace_summary  # noqa: E402

from repro import obs  # noqa: E402
from repro.core import FlexGraphEngine  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.models import gcn  # noqa: E402
from repro.tensor import Adam, Tensor  # noqa: E402


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """Export one real engine-run trace shared by every test."""
    obs.reset()
    ds = load_dataset("reddit", scale="tiny")
    model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
    engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=0)
    engine.train_epoch(Tensor(ds.features), ds.labels,
                       Adam(model.parameters(), 0.01), ds.train_mask)
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    obs.export_json(str(path))
    obs.reset()
    return str(path)


class TestSummaryView:
    def test_exit_code_and_header(self, trace_path, capsys):
        assert trace_summary.main([trace_path]) == 0
        out = capsys.readouterr().out
        assert trace_path in out
        assert "spans," in out and "events)" in out

    def test_summary_names_engine_spans_and_counters(self, trace_path, capsys):
        trace_summary.main([trace_path])
        out = capsys.readouterr().out
        for name in ("engine.train_epoch", "stage.neighbor_selection",
                     "stage.aggregation", "stage.update", "stage.backward"):
            assert name in out, f"summary is missing span {name}"
        # profiler counters ride along in the same trace
        assert "profile.flops" in out
        assert "profile.bytes_read" in out

    def test_spans_flag_lists_individual_spans(self, trace_path, capsys):
        trace_summary.main([trace_path, "--spans"])
        out = capsys.readouterr().out
        assert "stage.aggregation" in out
        assert "ms" in out
        # work attribution shows up in the per-span attr dump
        assert "flops=" in out

    def test_events_flag_lists_backend_events(self, trace_path, capsys):
        trace_summary.main([trace_path, "--events"])
        out = capsys.readouterr().out
        assert "aggregation.backend" in out
        assert "backend=" in out

    def test_limit_truncates_listing(self, trace_path, capsys):
        trace_summary.main([trace_path, "--spans", "--limit", "2"])
        out = capsys.readouterr().out
        assert "more (raise --limit)" in out

    def test_old_schema_summary_renders_but_listing_refused(self, tmp_path,
                                                            capsys):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps({
            "schema": "repro.obs/2",
            "spans": [{"id": 0, "name": "stage.update", "start": 0.1,
                       "duration": 0.2, "depth": 0}],
            "events": [{"name": "pick", "time": 0.1}],
            "counters": {}, "gauges": {}, "histograms": {}, "epochs": {},
        }))
        assert trace_summary.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage.update" in out and "pick" in out
        assert trace_summary.main([str(path), "--spans"]) == 1
        assert "predates the one-record format" in capsys.readouterr().err

    def test_unknown_schema_warns_but_renders(self, tmp_path, capsys):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({
            "schema": "someone.else/9",
            "spans": [], "events": [], "counters": {}, "gauges": {},
        }))
        assert trace_summary.main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "unknown trace schema" in captured.err
        assert "(0 spans, 0 events)" in captured.out


class TestPerRankSections:
    """Regression: merged k=2 multiprocess traces get per-rank sections
    and a cross-rank critical-path line."""

    @pytest.fixture(scope="class")
    def merged_trace_path(self, tmp_path_factory):
        """A merged two-rank trace built exactly the way the parent
        builds one: each worker's snapshot (records stamped by its
        context, its own clock origin) folded in with Registry.merge."""
        obs.reset()
        reg = obs.get_registry()
        for rank, offset in ((0, 0.010), (1, 0.012)):
            slow = 0.050 if rank == 1 else 0.020  # rank 1 bounds layer 0

            def span(name, t, duration, span_id, layer, **attrs):
                return {"kind": "span", "name": name, "t": t,
                        "duration": duration, "id": span_id, "depth": 0,
                        "attrs": attrs,
                        "ctx": {"worker": rank, "epoch": 0, "layer": layer}}

            reg.merge({"origin": reg.origin + offset, "spans": [
                span("dist.compute", 0.001, slow, 1, 0),
                span("dist.comm", 0.001 + slow, 0.004, 2, 0,
                     sync="layer_sync"),
                span("dist.compute", 0.060, 0.015, 3, 1),
            ]})
        path = tmp_path_factory.mktemp("mtrace") / "merged.json"
        obs.export_json(str(path))
        obs.reset()
        return str(path)

    def test_sections_appear_automatically_for_merged_trace(
            self, merged_trace_path, capsys):
        assert trace_summary.main([merged_trace_path]) == 0
        out = capsys.readouterr().out
        assert "per-rank spans:" in out
        assert "rank 0" in out and "rank 1" in out
        # both ranks' compute aggregates are listed under their section
        assert out.count("dist.compute") >= 3  # summary + two sections

    def test_critical_path_names_bounding_rank(self, merged_trace_path,
                                               capsys):
        trace_summary.main([merged_trace_path])
        out = capsys.readouterr().out
        assert "cross-rank critical path:" in out
        # rank 1's layer-0 compute dominates: it bounds the barrier
        assert "L0->w1" in out
        assert "slowest rank: w1" in out

    def test_single_rank_trace_stays_clean_without_flag(self, trace_path,
                                                        capsys):
        trace_summary.main([trace_path])
        out = capsys.readouterr().out
        assert "per-rank spans:" not in out

    def test_per_rank_flag_forces_sections(self, merged_trace_path, capsys):
        trace_summary.main([merged_trace_path, "--per-rank"])
        out = capsys.readouterr().out
        assert "per-rank spans:" in out
