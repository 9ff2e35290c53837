"""Tests for ``tools/obsview.py summary`` / ``chrome`` over real
traces: the file a run exports reads back exactly as the run printed
it, and every reader returns the same from the file as from the live
registry."""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import obsview  # noqa: E402

from repro import obs  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.core import FlexGraphEngine  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.models import gcn  # noqa: E402
from repro.obs.export import to_chrome_trace, to_dict  # noqa: E402
from repro.obs.profile import profile_report  # noqa: E402
from repro.tensor import Adam, Tensor  # noqa: E402


def summary(*argv):
    return obsview.main(["summary", *map(str, argv)])


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
        assert summary(trace_path) == 0
        out = capsys.readouterr().out
        assert trace_path in out
        assert "spans," in out and "events)" in out

    def test_summary_names_engine_spans_and_counters(self, trace_path, capsys):
        summary(trace_path)
        out = capsys.readouterr().out
        for name in ("engine.train_epoch", "stage.neighbor_selection",
                     "stage.aggregation", "stage.update", "stage.backward"):
            assert name in out, f"summary is missing span {name}"
        # profiler counters ride along in the same trace
        assert "profile.flops" in out
        assert "profile.bytes_read" in out
        # ... and the work profile, whose backend table prints once
        assert "work profile:" in out and "ops (by FLOPs):" in out
        assert out.count("backend cost per strategy/level") == 1

    def test_spans_flag_lists_individual_spans(self, trace_path, capsys):
        summary(trace_path, "--spans")
        out = capsys.readouterr().out
        assert "stage.aggregation" in out
        assert "ms" in out
        # work attribution shows up in the per-span attr dump
        assert "flops=" in out

    def test_events_flag_lists_backend_events(self, trace_path, capsys):
        summary(trace_path, "--events")
        out = capsys.readouterr().out
        assert "aggregation.backend" in out
        assert "backend=" in out

    def test_limit_truncates_listing(self, trace_path, capsys):
        summary(trace_path, "--spans", "--limit", "2")
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
        # Refused, summary and listing alike, naming both schemas.
        for argv in ((path,), (path, "--spans")):
            assert summary(*argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "'repro.obs/2'" in captured.err
            assert "'repro.obs/3'" in captured.err

    def test_unknown_schema_refused(self, tmp_path, capsys):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({
            "schema": "someone.else/9",
            "spans": [], "events": [], "counters": {}, "gauges": {},
        }))
        assert summary(path) == 1
        assert obsview.main(["chrome", str(path),
                             str(tmp_path / "out.json")]) == 1
        assert not (tmp_path / "out.json").exists()
        assert "'someone.else/9'" in capsys.readouterr().err


class TestOneTraceFormat:
    def test_obsview_prints_exactly_what_the_cli_printed(self, tmp_path,
                                                         capsys):
        path = tmp_path / "trace.json"
        assert cli_main(["train", "--dataset", "reddit", "--scale", "tiny",
                         "--model", "gcn", "--epochs", "2",
                         "--trace", str(path)]) == 0
        printed = capsys.readouterr().out
        cli_summary = printed.split(f"trace written to {path}\n", 1)[1]
        assert summary(path) == 0
        header, viewed = capsys.readouterr().out.split("\n", 1)
        assert header.startswith(f"trace: {path}")
        assert "work profile:" in viewed
        assert viewed == cli_summary

    def test_readers_agree_on_file_and_live_registry(self, tmp_path):
        obs.reset()
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="sa", seed=0)
        engine.train_epoch(Tensor(ds.features), ds.labels,
                           Adam(model.parameters(), 0.01), ds.train_mask)
        live = to_dict()
        path = tmp_path / "trace.json"
        obs.export_json(str(path))
        obs.reset()
        with open(path) as fh:
            from_file = json.load(fh)
        assert to_chrome_trace(from_file) == to_chrome_trace(live)
        assert profile_report(from_file) == profile_report(live)
        assert obs.render_summary(from_file) == obs.render_summary(live)

    def test_chrome_subcommand_writes_the_conversion(self, trace_path,
                                                     tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert obsview.main(["chrome", trace_path, str(out)]) == 0
        with open(trace_path) as fh:
            expected = to_chrome_trace(json.load(fh))
        assert json.loads(out.read_text()) == expected
        assert str(out) in capsys.readouterr().out


class TestPerRankSections:
    """Regression: merged k=2 multiprocess traces get per-rank sections
    and the straggler report's critical-path line."""

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
        assert summary(merged_trace_path) == 0
        out = capsys.readouterr().out
        assert "per-rank spans:" in out
        assert "rank 0" in out and "rank 1" in out
        # both ranks' compute aggregates are listed under their section
        assert out.count("dist.compute") >= 3  # summary + two sections

    def test_critical_path_names_bounding_rank(self, merged_trace_path,
                                               capsys):
        summary(merged_trace_path)
        out = capsys.readouterr().out
        # rank 1's layer-0 compute dominates: it bounds the barrier.
        # The straggler report renders both lines, once.
        assert out.count("critical path per layer: L0->w1") == 1
        assert out.count("slowest worker: w1") == 1

    def test_single_rank_trace_stays_clean_without_flag(self, trace_path,
                                                        capsys):
        summary(trace_path)
        out = capsys.readouterr().out
        assert "per-rank spans:" not in out

    def test_per_rank_flag_forces_sections(self, merged_trace_path, capsys):
        summary(merged_trace_path, "--per-rank")
        out = capsys.readouterr().out
        assert "per-rank spans:" in out
