"""Exporters: JSON traces, Chrome traces, summaries.

The native JSON schema (version 2) is::

    {
      "schema": "repro.obs/2",
      "meta": {"dropped_spans": 0, "dropped_events": 0},
      "spans":    [{"id", "name", "start", "duration", "depth",
                    "parent"?, "simulated"?, "attrs"?}, ...],
      "events":   [{"name", "time", "attrs"?}, ...],
      "counters": {name: {"total", "current", "peak", "count"}, ...},
      "gauges":   {name: {"value", "peak", "count"}, ...},
      "histograms": {name: {"count", "sum", "min", "max",
                            "p50", "p90", "p99", "buckets"}, ...},
      "epochs":   {name: {"name", "rows": [{"epoch", ...}, ...]}, ...}
    }

Version 2 is a superset of version 1 (readers of /1 traces keep
working; the new sections default to empty).  One standard format is
also supported: :func:`export_chrome_trace` writes Chrome Trace Event
Format, loadable in ``chrome://tracing`` and https://ui.perfetto.dev.

``tools/trace_summary.py`` pretty-prints native traces from the command
line; :func:`summary` renders the same aggregation for a live registry.
"""

from __future__ import annotations

import json
from typing import Iterable

from .profile import WORK_RATE_SPANS
from .registry import Registry, get_registry

__all__ = [
    "to_dict",
    "export_json",
    "summary",
    "aggregate_spans",
    "to_chrome_trace",
    "export_chrome_trace",
]

SCHEMA = "repro.obs/2"


def to_dict(registry: Registry | None = None) -> dict:
    """Serializable snapshot of a registry (the global one by default)."""
    reg = registry or get_registry()
    return {
        "schema": SCHEMA,
        "meta": {
            "trace_id": reg.trace_id,
            "dropped_spans": reg.dropped_spans,
            "dropped_events": reg.dropped_events,
        },
        "spans": [s.to_dict() for s in reg.spans],
        "events": [e.to_dict() for e in reg.events],
        "counters": {name: c.to_dict() for name, c in reg.counters.items()},
        "gauges": {name: g.to_dict() for name, g in reg.gauges.items()},
        "histograms": {
            name: h.to_dict() for name, h in reg.histograms.items()
        },
        "epochs": {
            name: log.to_dict() for name, log in reg.epoch_logs.items()
        },
    }


def export_json(path: str, registry: Registry | None = None) -> None:
    """Write the registry snapshot as a JSON trace file."""
    with open(path, "w") as fh:
        json.dump(to_dict(registry), fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------------
# Chrome Trace Event Format (chrome://tracing, Perfetto)
# ----------------------------------------------------------------------

#: pid lanes: measured spans vs modeled (simulated) durations.  Modeled
#: spans never occupied wall time, so mixing them into the measured
#: timeline would draw misleading overlaps.
_PID_MEASURED = 0
_PID_SIMULATED = 1

#: non-integer worker labels are mapped onto tids starting here, well
#: clear of any realistic integer worker rank
_LABEL_TID_BASE = 10_000


def _worker_label_tids(spans) -> dict[str, int]:
    """Stable tid per distinct non-integer ``worker`` label.

    Labels are sorted before numbering, so the mapping depends only on
    the *set* of labels present, not on span order.
    """
    labels: set[str] = set()
    for s in spans:
        worker = s.attrs.get("worker", 0)
        try:
            int(worker)
        except (TypeError, ValueError):
            labels.add(str(worker))
    return {
        label: _LABEL_TID_BASE + i for i, label in enumerate(sorted(labels))
    }


def to_chrome_trace(registry: Registry | None = None) -> dict:
    """Registry snapshot in Chrome Trace Event Format.

    Spans become complete events (``ph: "X"``, microsecond timestamps);
    point events become global instants (``ph: "i"``).  Measured and
    simulated spans live in separate process lanes, and spans carrying a
    ``worker`` attribute are placed on that worker's thread so the
    per-worker timelines of the simulated cluster line up visually.
    Non-integer worker labels get distinct stable tids (>= 10000) with a
    ``thread_name`` metadata record and a ``trace.worker_label_coerced``
    instant documenting each mapping.  Spans named in
    ``profile.WORK_RATE_SPANS`` that carry work attribution additionally
    emit counter events (``ph: "C"``) so FLOP/s and bytes/s render as
    tracks in Perfetto.
    """
    reg = registry or get_registry()
    trace_events: list[dict] = [
        {
            "ph": "M", "name": "process_name", "pid": pid,
            "tid": 0, "args": {"name": label},
        }
        for pid, label in (
            (_PID_MEASURED, "repro (measured)"),
            (_PID_SIMULATED, "repro (simulated)"),
        )
    ]
    # Integer worker ranks get named lanes too, so a merged multiprocess
    # trace reads "rank 0 / rank 1 / ..." instead of bare thread ids.
    int_tids: set[int] = set()
    for s in reg.spans:
        worker = s.attrs.get("worker")
        if worker is None:
            continue
        try:
            int_tids.add(int(worker))
        except (TypeError, ValueError):
            pass
    for tid in sorted(int_tids):
        trace_events.append({
            "ph": "M", "name": "thread_name",
            "pid": _PID_MEASURED, "tid": tid,
            "args": {"name": f"rank {tid}"},
        })
    label_tids = _worker_label_tids(reg.spans)
    for label, tid in label_tids.items():
        trace_events.append({
            "ph": "M", "name": "thread_name",
            "pid": _PID_MEASURED, "tid": tid,
            "args": {"name": f"worker {label}"},
        })
        trace_events.append({
            "ph": "i", "s": "g", "name": "trace.worker_label_coerced",
            "pid": _PID_MEASURED, "tid": tid, "ts": 0.0,
            "args": {"worker": label, "tid": tid},
        })
    rate_names = set(WORK_RATE_SPANS)
    for s in reg.spans:
        pid = _PID_SIMULATED if s.simulated else _PID_MEASURED
        worker = s.attrs.get("worker", 0)
        try:
            tid = int(worker)
        except (TypeError, ValueError):
            tid = label_tids[str(worker)]
        trace_events.append({
            "ph": "X",
            "name": s.name,
            "pid": pid,
            "tid": tid,
            "ts": s.start * 1e6,
            "dur": s.duration * 1e6,
            "args": dict(s.attrs),
        })
        if s.name in rate_names and s.duration > 0 and "flops" in s.attrs:
            flops_rate = s.attrs.get("flops", 0.0) / s.duration
            bytes_rate = (
                s.attrs.get("bytes_read", 0.0)
                + s.attrs.get("bytes_written", 0.0)
            ) / s.duration
            for name, value, ts in (
                ("work.flops_per_sec", flops_rate, s.start),
                ("work.bytes_per_sec", bytes_rate, s.start),
                ("work.flops_per_sec", 0.0, s.start + s.duration),
                ("work.bytes_per_sec", 0.0, s.start + s.duration),
            ):
                trace_events.append({
                    "ph": "C", "name": name,
                    "pid": pid, "tid": 0,
                    "ts": ts * 1e6, "args": {"value": value},
                })
    for e in reg.events:
        trace_events.append({
            "ph": "i",
            "s": "g",
            "name": e.name,
            "pid": _PID_MEASURED,
            "tid": 0,
            "ts": e.time * 1e6,
            "args": dict(e.attrs),
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": reg.trace_id},
    }


def export_chrome_trace(path: str, registry: Registry | None = None) -> None:
    """Write a ``chrome://tracing``/Perfetto-loadable trace file."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(registry), fh)
        fh.write("\n")


def aggregate_spans(spans: Iterable) -> dict[str, dict]:
    """Aggregate span dicts/records by name -> count/total/max stats.

    Accepts either :class:`SpanRecord` objects or the dicts found in an
    exported trace, so the CLI trace tool can share this code path.
    """
    stats: dict[str, dict] = {}
    for s in spans:
        if isinstance(s, dict):
            name, dur = s["name"], float(s["duration"])
            simulated = bool(s.get("simulated"))
        else:
            name, dur, simulated = s.name, s.duration, s.simulated
        row = stats.get(name)
        if row is None:
            row = stats[name] = {
                "count": 0, "total": 0.0, "max": 0.0, "simulated": simulated,
            }
        row["count"] += 1
        row["total"] += dur
        row["max"] = max(row["max"], dur)
    return stats


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:9.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:9.3f}ms"
    return f"{seconds * 1e6:9.1f}us"


def _format_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:,.1f} {unit}" if unit != "B" else f"{int(n):,} B"
        n /= 1024.0
    return f"{n:,.1f} TB"


def render_summary(
    span_stats: dict[str, dict],
    counters: dict[str, dict],
    gauges: dict[str, dict],
    events: list[dict],
    meta: dict | None = None,
    histograms: dict[str, dict] | None = None,
    epochs: dict[str, dict] | None = None,
) -> str:
    """Render aggregated trace data as a fixed-width text table."""
    lines: list[str] = []
    if span_stats:
        lines.append("spans (aggregated by name):")
        lines.append(f"  {'name':<34} {'count':>7} {'total':>11} "
                     f"{'mean':>11} {'max':>11}")
        grand = sum(r["total"] for r in span_stats.values())
        for name in sorted(span_stats, key=lambda n: -span_stats[n]["total"]):
            row = span_stats[name]
            mean = row["total"] / max(row["count"], 1)
            tag = "~" if row.get("simulated") else " "
            lines.append(
                f" {tag}{name:<34} {row['count']:>7} "
                f"{_format_seconds(row['total'])} {_format_seconds(mean)} "
                f"{_format_seconds(row['max'])}"
            )
        lines.append(f"  {'(sum of spans; ~ = simulated)':<34} "
                     f"{'':>7} {_format_seconds(grand)}")
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            c = counters[name]
            rendered = (
                f"total {_format_bytes(c['total'])}  "
                f"peak {_format_bytes(c['peak'])}"
                if "bytes" in name
                else f"total {c['total']:,.0f}  peak {c['peak']:,.0f}"
            )
            lines.append(f"  {name:<36} {rendered}  (n={c['count']})")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            g = gauges[name]
            peak = g["peak"]
            peak_s = "n/a" if peak is None else f"{peak:,.4g}"
            lines.append(f"  {name:<36} value {g['value']:,.4g}  peak {peak_s}")
    if histograms:
        lines.append("histograms (percentiles; span.* are seconds):")
        lines.append(f"  {'name':<34} {'count':>7} {'p50':>11} "
                     f"{'p90':>11} {'p99':>11} {'max':>11}")
        for name in sorted(histograms):
            h = histograms[name]
            if not h["count"]:
                continue
            if name.startswith("span."):
                fmt = _format_seconds
            elif "bytes" in name:
                fmt = lambda v: f"{_format_bytes(v):>11}"  # noqa: E731
            else:
                fmt = lambda v: f"{v:>11.4g}"  # noqa: E731
            lines.append(
                f"  {name:<34} {h['count']:>7} "
                f"{fmt(h['p50'])} {fmt(h['p90'])} "
                f"{fmt(h['p99'])} {fmt(h['max'])}"
            )
    if epochs:
        lines.append("epoch series:")
        for name in sorted(epochs):
            rows = epochs[name].get("rows", [])
            keys = [k for k in (rows[-1] if rows else {}) if k != "epoch"]
            lines.append(f"  {name:<36} {len(rows)} epochs "
                         f"({', '.join(keys)})")
    if events:
        lines.append("events (by name):")
        by_name: dict[str, int] = {}
        for e in events:
            by_name[e["name"]] = by_name.get(e["name"], 0) + 1
        for name in sorted(by_name):
            lines.append(f"  {name:<36} x{by_name[name]}")
    if meta and (meta.get("dropped_spans") or meta.get("dropped_events")):
        lines.append(
            f"  [capped: dropped {meta.get('dropped_spans', 0)} spans, "
            f"{meta.get('dropped_events', 0)} events]"
        )
    if not lines:
        return "(no observability data recorded)"
    return "\n".join(lines)


def summary(registry: Registry | None = None) -> str:
    """Human-readable summary of everything recorded so far."""
    snapshot = to_dict(registry)
    return render_summary(
        aggregate_spans(snapshot["spans"]),
        snapshot["counters"],
        snapshot["gauges"],
        snapshot["events"],
        snapshot["meta"],
        histograms=snapshot["histograms"],
        epochs=snapshot["epochs"],
    )
