#!/usr/bin/env python3
"""Pretty-print a ``repro.obs`` JSON trace (``flexgraph ... --trace``).

Usage::

    python tools/trace_summary.py out.json            # aggregated summary
    python tools/trace_summary.py out.json --spans    # per-span listing
    python tools/trace_summary.py out.json --events   # per-event listing

The summary view aggregates spans by name (count / total / mean / exact
p50 / p99 / max, ``~`` marking simulated durations), then lists counters
(total + peak), gauges and event counts — the same rendering
``repro.obs.summary()`` produces for a live registry — and, when the
trace holds ``aggregation.backend`` events, the per-level backend table
(backend, operator order and the width each level reduced at, with
measured cost).  The listings
render each record with ``repro.obs.render_timeline``, the renderer
``tools/postmortem.py`` uses for journals.

Traces written before the one-record format (``repro.obs/1`` and
``/2``) still get the summary view; their records carry no common time
field, so ``--spans`` / ``--events`` refuse them.

Merged multiprocess traces (spans naming an integer ``worker`` — in
their context stamp or attrs — from two or more ranks) additionally get
**per-rank sections** — each
rank's spans aggregated separately, in lane order — and a cross-rank
**critical path** line naming, per layer, the rank whose compute+comm
bounded the barrier.  ``--per-rank`` forces the sections on even for a
single-rank trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs import (  # noqa: E402
    aggregate_spans,
    render_summary,
    render_timeline,
    straggler_report,
)
from repro.obs.analysis import backend_report, render_backend_report  # noqa: E402
from repro.obs.export import SCHEMA  # noqa: E402
from repro.obs.registry import Record  # noqa: E402

#: schemas whose by-name aggregates still render (no per-record listing)
_OLD_SCHEMAS = ("repro.obs/1", "repro.obs/2")


def _listing(records: list[dict], limit: int) -> str:
    lines = [render_timeline(records[:limit])] if records else ["  (none)"]
    if len(records) > limit:
        lines.append(f"  ... {len(records) - limit} more (raise --limit)")
    return "\n".join(lines)


def _rank_of(span: dict) -> int | None:
    """The integer worker rank a span belongs to, if any."""
    worker = Record.of(span).get("worker")
    if isinstance(worker, bool) or not isinstance(worker, int):
        return None
    return worker


def per_rank_summary(spans: list[dict]) -> str:
    """Per-rank span aggregates + the cross-rank critical-path line.

    Groups spans by their ``worker`` (the lane assignment of a merged
    multiprocess trace); unattributed spans — the parent's own —
    are summarized under ``(parent)``.
    """
    by_rank: dict[int, list[dict]] = {}
    parent_spans: list[dict] = []
    for s in spans:
        rank = _rank_of(s)
        if rank is None:
            parent_spans.append(s)
        else:
            by_rank.setdefault(rank, []).append(s)
    if not by_rank:
        return ""
    lines = ["per-rank spans:"]
    sections = [(f"rank {r}", by_rank[r]) for r in sorted(by_rank)]
    if parent_spans:
        sections.append(("(parent)", parent_spans))
    for label, rank_spans in sections:
        total = sum(float(s["duration"]) for s in rank_spans)
        lines.append(f"  {label}  ({len(rank_spans)} spans, "
                     f"{total * 1e3:.3f}ms total)")
        stats = aggregate_spans(rank_spans)
        for name in sorted(stats, key=lambda n: -stats[n]["total"]):
            row = stats[name]
            mean = row["total"] / max(row["count"], 1)
            tag = "~" if row.get("simulated") else " "
            lines.append(
                f"    {name:<32} {row['count']:>6} "
                f"{row['total'] * 1e3:>10.3f}ms {mean * 1e3:>10.3f}ms{tag}"
            )
    report = straggler_report(spans)
    if report.critical_path:
        path = " ".join(
            f"L{layer}->w{worker}"
            for layer, worker in sorted(report.critical_path.items())
        )
        lines.append(f"  cross-rank critical path: {path}")
    if report.slowest_worker is not None and len(report.per_worker) > 1:
        lines.append(
            f"  slowest rank: w{report.slowest_worker} "
            f"(skew ratio {report.skew_ratio:.2f})"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Pretty-print a repro.obs JSON trace file."
    )
    parser.add_argument("trace", help="path to a --trace JSON file")
    parser.add_argument("--spans", action="store_true",
                        help="list individual spans in time order")
    parser.add_argument("--events", action="store_true",
                        help="list individual events in time order")
    parser.add_argument("--limit", type=int, default=200,
                        help="max rows for --spans/--events (default 200)")
    parser.add_argument("--per-rank", action="store_true",
                        help="force per-rank sections (auto for merged "
                             "multiprocess traces)")
    args = parser.parse_args(argv)

    with open(args.trace) as fh:
        data = json.load(fh)
    schema = data.get("schema")
    spans, events = data.get("spans", []), data.get("events", [])
    if schema in _OLD_SCHEMAS:
        if args.spans or args.events:
            print(f"{args.trace}: schema {schema} predates the one-record "
                  f"format ({SCHEMA}); its records carry no common time "
                  "field, so only the summary view can be rendered",
                  file=sys.stderr)
            return 1
        for e in events:  # old event dicts carry no kind
            e.setdefault("kind", "event")
    elif schema != SCHEMA:
        print(f"warning: unknown trace schema {schema!r}; "
              "attempting to render anyway", file=sys.stderr)

    print(f"trace: {args.trace}  "
          f"({len(spans)} spans, {len(events)} events)")
    if args.spans or args.events:
        records = spans if args.spans else events
        print(_listing(sorted(records, key=lambda r: r.get("t", 0.0)),
                       args.limit))
        return 0
    print(render_summary(
        aggregate_spans(spans),
        data.get("counters", {}),
        data.get("gauges", {}),
        events,
        data.get("meta"),
    ))
    backends = backend_report(events)["rows"]
    if backends:
        print(render_backend_report(backends))
    ranks = {_rank_of(s) for s in spans} - {None}
    if args.per_rank or len(ranks) >= 2:
        section = per_rank_summary(spans)
        if section:
            print()
            print(section)
    return 0


if __name__ == "__main__":
    sys.exit(main())
