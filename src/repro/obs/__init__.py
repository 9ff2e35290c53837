"""``repro.obs`` — the unified observability layer.

Every hot path in the reproduction reports into this one subsystem
instead of growing its own ad-hoc clocks and module-global counters.
The model has four parts (``docs/observability.md``):

* **record** — each occurrence is one :class:`~repro.obs.registry.Record`
  (kind, name, time, optional duration, attrs), built by one of the emit
  functions: :class:`span` / :func:`record_span` (timed regions — the
  per-stage breakdown of Table 4 and the compute/comm overlap of
  Figure 15; modeled durations are flagged ``simulated``),
  :func:`event` (point annotations, e.g. which backend the hybrid
  executor picked per HDG level, Figure 14; one ``epoch`` event per
  training epoch carries its scalars), :func:`log`, :func:`phase`,
  :func:`sample_metrics`, :func:`crash`;
* **context** — :func:`set_context` / :func:`phase` maintain the stamp
  (which worker / epoch / layer / phase) every record carries;
* **sinks** — the registry hands each record once to its bounded store,
  then to whatever was added with :func:`add_sink`: the crash-surviving
  :class:`FlightRecorder` (:mod:`repro.obs.flight`: per-process
  journals, incident bundles) and the live :class:`TelemetrySlab`
  writer (:mod:`repro.obs.live`: shared-memory heartbeats, stall
  detection).  :func:`counter` / :func:`gauge` are typed O(1) metrics
  with running-total *and* peak semantics (the memory accounting of
  Table 5); :func:`record_op` accounts FLOPs/bytes into them and into
  every open span (:mod:`repro.obs.profile`);
* **readers** — a run has one serialised view, the native trace:
  :func:`to_dict` snapshots the registry into it and :func:`export_json`
  writes it (``flexgraph ... --trace PATH``).  Every reader takes that
  dict or its record lists, never the live registry:
  :func:`render_summary` (by-name tables plus the work profile),
  :func:`to_chrome_trace`, :func:`aggregate_spans`, :func:`timeline` /
  :func:`render_timeline` (:mod:`repro.obs.export`),
  :func:`straggler_report` and the per-level backend ranking
  (:mod:`repro.obs.analysis`).  ``tools/obsview.py`` is the one
  command-line reader: trace summaries, Chrome conversion, incident
  bundles and the live slab.

The registry is process-global; call :func:`reset` at the start of a
measurement window.  All primitives are cheap (a ``perf_counter`` call
and a list append) so they stay on in production code paths.
"""

from .analysis import straggler_report
from .export import (
    aggregate_spans,
    export_json,
    percentile,
    render_summary,
    render_timeline,
    timeline,
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
from .live import StallDetector, StallEvent, TelemetrySlab
from .profile import record_op, work_since, work_snapshot
from .registry import disable, enable, get_registry, reset
from .spans import (
    add_sink,
    clear_context,
    counter,
    crash,
    event,
    gauge,
    log,
    phase,
    record_span,
    sample_metrics,
    set_context,
    span,
)

# Every name here has a reader outside this package (src/, tools/,
# benchmarks/, examples/) — tests/test_ledger_surface.py holds the list
# to that, so the package cannot re-grow API that only its own tests use.
__all__ = [
    "span",
    "record_span",
    "event",
    "log",
    "phase",
    "crash",
    "sample_metrics",
    "set_context",
    "clear_context",
    "add_sink",
    "counter",
    "gauge",
    "record_op",
    "work_snapshot",
    "work_since",
    "get_registry",
    "reset",
    "enable",
    "disable",
    "to_dict",
    "export_json",
    "render_summary",
    "to_chrome_trace",
    "aggregate_spans",
    "percentile",
    "timeline",
    "render_timeline",
    "straggler_report",
    "FlightRecorder",
    "install_flight",
    "uninstall_flight",
    "get_flight",
    "write_incident_bundle",
    "latest_incident",
    "read_journal",
    "TelemetrySlab",
    "StallDetector",
    "StallEvent",
]
