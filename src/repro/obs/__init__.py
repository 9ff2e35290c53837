"""``repro.obs`` — the unified observability layer.

Every hot path in the reproduction reports into this one subsystem
instead of growing its own ad-hoc clocks and module-global counters:

* :class:`span` — nestable, monotonic timed regions (the per-stage
  breakdown of Table 4 and the compute/comm overlap of Figure 15);
* :func:`record_span` — spans with *modeled* durations (simulated
  network time), flagged ``simulated`` in exports;
* :func:`counter` / :func:`gauge` — typed metrics with running-total
  *and* peak semantics (the memory accounting of Table 5);
* :func:`histogram` — log-bucketed distributions with p50/p90/p99
  readouts; the registry derives one per span name automatically;
* :func:`epoch_log` — append-only per-epoch scalar time-series (loss,
  simulated seconds, traffic, balance factor, throughput);
* :func:`event` — point annotations, e.g. which backend (FA / SA /
  dense) the hybrid executor picked per HDG level (Figure 14);
* :mod:`repro.obs.profile` — op-level FLOP/byte accounting attributed
  to the enclosing spans, with :func:`profile_report` /
  :func:`render_profile_report` roofline-style summaries;
* :mod:`repro.obs.flight` — the crash-surviving flight recorder
  (bounded ring + per-rank journals) and incident bundles;
* :mod:`repro.obs.log` — structured logging stamped with
  rank/epoch/layer/phase and the enclosing span;
* :mod:`repro.obs.analysis` — straggler/skew reports aggregated from
  the distributed per-worker spans, plus :func:`backend_report`
  ranking aggregation backends per HDG level by measured cost;
* :func:`export_json` / :func:`export_chrome_trace` / :func:`summary`
  — a native JSON trace, a ``chrome://tracing``/Perfetto trace and a
  human-readable roll-up, reachable via ``flexgraph ...
  --trace/--chrome-trace``.

The registry is process-global; call :func:`reset` at the start of a
measurement window.  All primitives are cheap (a ``perf_counter`` call
and a list append) so they stay on in production code paths.
"""

from . import analysis, flight, live, log, profile
from .analysis import (
    StragglerReport,
    backend_report,
    render_backend_report,
    render_straggler_report,
    straggler_report,
)
from .export import (
    aggregate_spans,
    export_chrome_trace,
    export_json,
    render_summary,
    summary,
    to_chrome_trace,
    to_dict,
)
from .flight import (
    FlightRecorder,
    get_flight,
    install_flight,
    latest_incident,
    read_journal,
    uninstall_flight,
    write_incident_bundle,
)
from .histogram import Histogram
from .live import StallDetector, StallEvent, TelemetrySlab, WorkerTelemetry
from .log import (
    StructuredLogger,
    clear_log_context,
    get_logger,
    set_log_context,
)
from .metrics import Counter, Gauge
from .registry import (
    SPAN_HISTOGRAM_PREFIX,
    EventRecord,
    Registry,
    SpanRecord,
    disable,
    enable,
    get_registry,
    reset,
)
from .profile import (
    WORK_RATE_SPANS,
    disable_profiling,
    enable_profiling,
    export_profile,
    peak_work_rates,
    profile_report,
    profiling_enabled,
    record_op,
    render_profile_report,
    span_work,
    work_since,
    work_snapshot,
)
from .spans import counter, epoch_log, event, gauge, histogram, record_span, span
from .timeseries import EpochLog

__all__ = [
    "span",
    "record_span",
    "event",
    "counter",
    "gauge",
    "histogram",
    "epoch_log",
    "Counter",
    "Gauge",
    "Histogram",
    "EpochLog",
    "Registry",
    "SpanRecord",
    "EventRecord",
    "SPAN_HISTOGRAM_PREFIX",
    "get_registry",
    "reset",
    "enable",
    "disable",
    "export_json",
    "to_dict",
    "to_chrome_trace",
    "export_chrome_trace",
    "summary",
    "render_summary",
    "aggregate_spans",
    "analysis",
    "straggler_report",
    "StragglerReport",
    "render_straggler_report",
    "backend_report",
    "render_backend_report",
    "flight",
    "FlightRecorder",
    "install_flight",
    "uninstall_flight",
    "get_flight",
    "write_incident_bundle",
    "latest_incident",
    "read_journal",
    "log",
    "StructuredLogger",
    "get_logger",
    "set_log_context",
    "clear_log_context",
    "live",
    "TelemetrySlab",
    "WorkerTelemetry",
    "StallDetector",
    "StallEvent",
    "profile",
    "record_op",
    "profiling_enabled",
    "enable_profiling",
    "disable_profiling",
    "work_snapshot",
    "work_since",
    "span_work",
    "peak_work_rates",
    "profile_report",
    "render_profile_report",
    "export_profile",
    "WORK_RATE_SPANS",
]
