"""The native trace and the readers that render or convert it.

A run is serialised one way: :func:`to_dict` snapshots the global
registry into the native trace, :func:`export_json` writes it to a
file.  Every reader here takes that dict (or its ``spans`` / ``events``
lists), whether it came from the live registry or from a file, and
never reads the registry itself.  The native JSON schema (version 3)
is::

    {
      "schema": "repro.obs/3",
      "meta": {"trace_id", "origin", "dropped_spans", "dropped_events"},
      "spans":    [record, ...],      # kind "span", in close order
      "events":   [record, ...],      # every other kind, in emit order
      "counters": {name: {"total", "current", "peak", "count"}, ...},
      "gauges":   {name: {"value", "peak", "count"}, ...}
    }

where every ``record`` is one ``Record.to_dict()``::

    {"kind", "name", "t", "duration"?, "id"?, "depth"?, "parent"?,
     "simulated"?, "attrs"?, "ctx"?}

— the same shape a flight-recorder journal line and the worker->parent
payload carry, so the record readers work on any of them.
:func:`to_chrome_trace` converts a trace to Chrome Trace Event Format,
loadable in ``chrome://tracing`` and https://ui.perfetto.dev.

``tools/obsview.py`` is the command-line reader: ``summary`` prints
:func:`render_summary` of a trace file, ``chrome`` writes
:func:`to_chrome_trace` of one.
"""

from __future__ import annotations

import json
from typing import Iterable

from .profile import WORK_RATE_SPANS, profile_report, render_profile_report
from .registry import Record, get_registry

__all__ = [
    "SCHEMA",
    "to_dict",
    "export_json",
    "render_summary",
    "aggregate_spans",
    "percentile",
    "timeline",
    "render_timeline",
    "to_chrome_trace",
]

SCHEMA = "repro.obs/3"


def to_dict() -> dict:
    """The native trace of the global registry: the one way a reader
    sees the live registry."""
    reg = get_registry()
    snapshot = reg.snapshot()
    return {
        "schema": SCHEMA,
        "meta": {
            "trace_id": reg.trace_id,
            "origin": snapshot.pop("origin"),
            "dropped_spans": reg.dropped_spans,
            "dropped_events": reg.dropped_events,
        },
        **snapshot,
    }


def export_json(path: str) -> dict:
    """Write :func:`to_dict` to ``path`` as a JSON trace file; returns
    the trace it wrote."""
    trace = to_dict()
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace


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
        worker = s.get("worker", 0)
        try:
            int(worker)
        except (TypeError, ValueError):
            labels.add(str(worker))
    return {
        label: _LABEL_TID_BASE + i for i, label in enumerate(sorted(labels))
    }


def to_chrome_trace(trace: dict) -> dict:
    """A native trace (:func:`to_dict`) in Chrome Trace Event Format.

    Spans become complete events (``ph: "X"``, microsecond timestamps);
    point events become global instants (``ph: "i"``).  Measured and
    simulated spans live in separate process lanes, and spans naming a
    ``worker`` (as an attr or in their context stamp) are placed on that
    worker's thread so the per-worker timelines line up visually.
    Non-integer worker labels get distinct stable tids (>= 10000) with a
    ``thread_name`` metadata record and a ``trace.worker_label_coerced``
    instant documenting each mapping.  Spans named in
    ``profile.WORK_RATE_SPANS`` that carry work attribution additionally
    emit counter events (``ph: "C"``) so FLOP/s and bytes/s render as
    tracks in Perfetto.
    """
    spans = [Record.from_dict(s) for s in trace["spans"]]
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
    for s in spans:
        worker = s.get("worker")
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
    label_tids = _worker_label_tids(spans)
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
    for s in spans:
        pid = _PID_SIMULATED if s.simulated else _PID_MEASURED
        worker = s.get("worker", 0)
        try:
            tid = int(worker)
        except (TypeError, ValueError):
            tid = label_tids[str(worker)]
        trace_events.append({
            "ph": "X",
            "name": s.name,
            "pid": pid,
            "tid": tid,
            "ts": s.t * 1e6,
            "dur": s.duration * 1e6,
            "args": {**s.ctx, **s.attrs},
        })
        if s.name in rate_names and s.duration > 0 and "flops" in s.attrs:
            flops_rate = s.attrs.get("flops", 0.0) / s.duration
            bytes_rate = (
                s.attrs.get("bytes_read", 0.0)
                + s.attrs.get("bytes_written", 0.0)
            ) / s.duration
            for name, value, ts in (
                ("work.flops_per_sec", flops_rate, s.t),
                ("work.bytes_per_sec", bytes_rate, s.t),
                ("work.flops_per_sec", 0.0, s.t + s.duration),
                ("work.bytes_per_sec", 0.0, s.t + s.duration),
            ):
                trace_events.append({
                    "ph": "C", "name": name,
                    "pid": pid, "tid": 0,
                    "ts": ts * 1e6, "args": {"value": value},
                })
    for e in map(Record.from_dict, trace["events"]):
        trace_events.append({
            "ph": "i",
            "s": "g",
            "name": e.name if e.kind == "event" else f"{e.kind}: {e.name}",
            "pid": _PID_MEASURED,
            "tid": 0,
            "ts": e.t * 1e6,
            "args": {**e.ctx, **e.attrs},
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace["meta"]["trace_id"]},
    }


def percentile(ordered: list[float], q: float) -> float:
    """The exact ``q``-quantile (0..1, nearest rank) of an ascending
    list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def aggregate_spans(spans: Iterable) -> dict[str, dict]:
    """Aggregate spans by name -> count/total/max and exact p50/p99.

    Takes the ``"spans"`` of a trace, or any slice of them (the
    per-rank sections of ``obsview summary``).  The percentiles are
    order statistics of the durations given — exact for the records
    that were kept; a capped trace says so in its ``meta``.
    """
    durations: dict[str, list[float]] = {}
    stats: dict[str, dict] = {}
    for s in map(Record.of, spans):
        row = stats.get(s.name)
        if row is None:
            row = stats[s.name] = {"count": 0, "total": 0.0,
                                   "simulated": s.simulated}
            durations[s.name] = []
        row["count"] += 1
        row["total"] += s.duration
        durations[s.name].append(s.duration)
    for name, row in stats.items():
        ordered = sorted(durations[name])
        row["max"] = ordered[-1]
        row["p50"] = percentile(ordered, 0.50)
        row["p99"] = percentile(ordered, 0.99)
    return stats


# ----------------------------------------------------------------------
# timelines: the one per-record text rendering (trace listings,
# post-mortem timelines)
# ----------------------------------------------------------------------
def timeline(sources: dict[str, Iterable[dict]]) -> list[dict]:
    """Merge serialised records from several processes into one
    time-ordered list.

    ``sources`` maps a label (a journal's name) to that process's
    records in emission order.  Record times count from a per-process
    clock origin; the ``clock`` records in each source say what it is,
    and ``origin + t`` is comparable across processes.  Returns copies
    carrying ``who`` (the label) and ``at`` (seconds on the shared
    clock), ``clock`` records themselves left out.
    """
    merged: list[dict] = []
    for who, records in sources.items():
        origin = 0.0
        for record in records:
            if record.get("kind") == "clock":
                origin = float(record["attrs"]["origin"])
                continue
            merged.append({**record, "who": who,
                           "at": origin + float(record.get("t", 0.0))})
    merged.sort(key=lambda r: r["at"])
    return merged


#: attrs too bulky for a one-line rendering
_BULKY_ATTRS = frozenset({"traceback", "counters", "gauges"})


def _describe(record: Record) -> str:
    kind, name = record.kind, record.name
    if kind == "span":
        mark = "~" if record.simulated else ""
        return (f"{'  ' * record.depth}{mark}{name} "
                f"({(record.duration or 0.0) * 1e3:.3f}ms)")
    if kind == "log":
        return f"log[{record.attrs.get('level')}] {name}"
    if kind == "phase":
        return f"phase -> {name}"
    if kind == "crash":
        return f"CRASH ({name})"
    if kind == "metrics":
        return "metrics sample"
    return f"{kind} {name}"


def render_timeline(records: Iterable[dict]) -> str:
    """One line per serialised record, in the order given: time (``at``
    from :func:`timeline`, else the record's own ``t``), who (the
    timeline label, else the ``worker`` of the context stamp), what,
    then the context and caller fields as ``key=value``."""
    lines = []
    for data in records:
        record = Record.from_dict(data)
        who = data.get("who")
        if who is None:
            worker = record.get("worker")
            who = "-" if worker is None else f"rank {worker}"
        fields = {k: v for k, v in record.ctx.items()
                  if k not in ("worker", "phase")}
        fields.update((k, v) for k, v in record.attrs.items()
                      if k not in _BULKY_ATTRS)
        if record.kind == "log":
            del fields["level"]  # already in the description
        rendered = " ".join(f"{k}={v}" for k, v in fields.items())
        lines.append(f"  {data.get('at', record.t) * 1e3:14.3f}ms  {who:<8} "
                     f"{_describe(record)}  {rendered}".rstrip())
    return "\n".join(lines)


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


def render_summary(trace: dict) -> str:
    """A native trace as fixed-width text: spans aggregated by name,
    counters, gauges, event counts, then its work profile (which ends
    with the per-level backend table)."""
    span_stats = aggregate_spans(trace["spans"])
    counters, gauges = trace["counters"], trace["gauges"]
    events, meta = trace["events"], trace["meta"]
    lines: list[str] = []
    if span_stats:
        lines.append("spans (aggregated by name):")
        lines.append(f"  {'name':<34} {'count':>7} {'total':>11} "
                     f"{'mean':>11} {'p50':>11} {'p99':>11} {'max':>11}")
        grand = sum(r["total"] for r in span_stats.values())
        for name in sorted(span_stats, key=lambda n: -span_stats[n]["total"]):
            row = span_stats[name]
            mean = row["total"] / max(row["count"], 1)
            tag = "~" if row.get("simulated") else " "
            lines.append(
                f" {tag}{name:<34} {row['count']:>7} "
                f"{_format_seconds(row['total'])} {_format_seconds(mean)} "
                f"{_format_seconds(row['p50'])} {_format_seconds(row['p99'])} "
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
    if events:
        lines.append("events (by name; other kinds by kind):")
        by_name: dict[str, int] = {}
        for e in map(Record.of, events):
            label = e.name if e.kind == "event" else f"[{e.kind}]"
            by_name[label] = by_name.get(label, 0) + 1
        for name in sorted(by_name):
            lines.append(f"  {name:<36} x{by_name[name]}")
    if meta["dropped_spans"] or meta["dropped_events"]:
        lines.append(
            f"  [capped: dropped {meta['dropped_spans']} spans, "
            f"{meta['dropped_events']} events]"
        )
    if not lines:
        return "(no observability data recorded)"
    lines.append(render_profile_report(profile_report(trace)))
    return "\n".join(lines)
