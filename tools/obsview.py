#!/usr/bin/env python3
"""The one reader for what ``repro.obs`` writes.

Usage::

    python tools/obsview.py summary TRACE [--spans | --events | --per-rank] [--limit N]
    python tools/obsview.py chrome TRACE OUT
    python tools/obsview.py incident [BUNDLE | --flight-dir DIR] [--timeline N] [--json]
    python tools/obsview.py live DESCRIPTOR [--watch] [--flight-dir DIR]

``summary`` and ``chrome`` read a native trace (schema ``repro.obs/3``):
the file ``flexgraph ... --trace PATH`` writes, or an incident bundle's
``trace.json``; any other schema is refused.  ``summary`` prints what
the CLI printed after the run — spans by name, counters, gauges, events,
then the work profile with its per-level backend table — and
``--spans`` / ``--events`` list the records instead.  A merged
multiprocess trace (spans of two or more integer worker ranks) also gets
per-rank sections and the straggler report; ``--per-rank`` forces them.
``chrome`` writes the trace in Chrome Trace Event Format, for
chrome://tracing or https://ui.perfetto.dev.

``incident`` reads one incident bundle (``write_incident_bundle``): the
manifest header, the telemetry table at the incident, a
culprit-vs-victim ranking from the per-rank journals and a merged
timeline of their final records.  A rank that died, was flagged stalled
or whose last journaled phase is an active one is a culprit; ranks
parked in waiting phases (barrier / idle / done) froze
because of a peer and are victims — the stall detector's own rule
(``repro.obs.live.in_active_phase``).

``live`` attaches to a running trainer's telemetry slab through its
descriptor file (``TelemetrySlab.write_descriptor``) and prints the same
telemetry table, refreshed with ``--watch``; with ``--flight-dir`` it
adds the newest incident's header.  A row whose progress is frozen past
``--stall-deadline`` in an active phase is marked ``STALLED?``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs import (
    aggregate_spans,
    latest_incident,
    read_journal,
    render_summary,
    render_timeline,
    straggler_report,
    timeline,
    to_chrome_trace,
)
from repro.obs.export import SCHEMA
from repro.obs.flight import JOURNAL_PREFIX
from repro.obs.live import (
    SLAB_SCHEMA,
    TelemetrySlab,
    WorkerSample,
    in_active_phase,
    is_stalled,
)
from repro.obs.registry import Record


def rank_of(record: dict) -> int | None:
    """The integer worker rank a record came from — its ``worker`` attr
    (the simulated trainer), else its context stamp's (a worker
    process) — or ``None`` for the parent's own records."""
    worker = Record.of(record).get("worker")
    if isinstance(worker, bool) or not isinstance(worker, int):
        return None
    return worker


# ----------------------------------------------------------------------
# the telemetry table (live slab samples, or a bundle's section)
# ----------------------------------------------------------------------
_TELEMETRY_HEADER = (
    f"  {'rank':>4}  {'pid':>7}  {'phase':<12} {'epoch':>5} {'layer':>5} "
    f"{'beats':>7} {'spans':>6} {'gflop/s':>8} {'age':>7}  status"
)


def render_telemetry(samples: list[WorkerSample | dict],
                     prev: list[WorkerSample] | None = None,
                     dt: float | None = None,
                     stall_deadline: float = 5.0) -> str:
    """One row per rank: live :class:`WorkerSample` objects or the
    ``workers`` of a telemetry section (``WorkerSample.to_dict()``).
    ``prev``/``dt`` (the previous poll and the seconds since) enable the
    throughput column; worker registries reset each epoch, so a negative
    FLOP delta renders as a dash rather than a bogus rate."""
    rows = [s if isinstance(s, dict) else s.to_dict() for s in samples]
    lines = [_TELEMETRY_HEADER]
    for i, s in enumerate(rows):
        rate = f"{'-':>8}"
        if prev is not None and dt and i < len(prev):
            dflops = s["flops"] - prev[i].flops
            if dflops >= 0:
                rate = f"{dflops / dt / 1e9:8.3f}"
        age = s["progress_age"]
        status = "ok"
        if s["seqno"] == 0:
            status = "no beat yet"
        elif is_stalled(s["phase"], age, stall_deadline):
            status = "STALLED?"
        age_s = f"{age:6.1f}s" if age is not None else "      -"
        lines.append(
            f"  {s['rank']:>4}  {s['pid']:>7}  {s['phase_name']:<12} "
            f"{s['epoch']:>5} {s['layer']:>5} {s['seqno']:>7} "
            f"{s['spans_closed']:>6} {rate} {age_s}  {status}"
        )
    return "\n".join(lines)


def render_manifest(manifest: dict) -> str:
    """An incident manifest's header: what, when, which rank, where
    (the ``path`` a reader added), why, and under what config."""
    rank = manifest.get("rank")
    lines = [
        f"incident : {manifest.get('kind', '?')}  at "
        f"{manifest.get('time', '?')}  rank {'-' if rank is None else rank}",
        f"bundle   : {manifest.get('path', '?')}",
    ]
    if manifest.get("reason"):
        lines.append(f"reason   : {manifest['reason']}")
    if manifest.get("config"):
        lines.append("config   : " + ", ".join(
            f"{k}={v}" for k, v in manifest["config"].items()))
    return "\n".join(lines)


def last_incident(flight_dir: str | None) -> str | None:
    """The newest incident under ``flight_dir`` as ``live`` prints it
    (``None`` without a flight dir)."""
    if not flight_dir:
        return None
    manifest = latest_incident(flight_dir)
    if manifest is None:
        return f"last incident: none  ({flight_dir})"
    return "last incident:\n" + render_manifest(manifest)


# ----------------------------------------------------------------------
# summary / chrome: native traces
# ----------------------------------------------------------------------
def load_trace(path: str) -> dict | None:
    """A native trace file, or ``None`` (said on stderr) for any other
    schema."""
    with open(path) as fh:
        trace = json.load(fh)
    schema = trace.get("schema")
    if schema != SCHEMA:
        print(f"{path}: schema {schema!r} is not {SCHEMA!r}, the only trace "
              "schema this reader knows; re-export the run with "
              "flexgraph --trace", file=sys.stderr)
        return None
    return trace


def _listing(records: list[dict], limit: int) -> str:
    lines = [render_timeline(records[:limit])] if records else ["  (none)"]
    if len(records) > limit:
        lines.append(f"  ... {len(records) - limit} more (raise --limit)")
    return "\n".join(lines)


def per_rank_summary(spans: list[dict]) -> str:
    """Each rank's spans aggregated separately (the parent's own under
    ``(parent)``), then the straggler report over all of them."""
    by_rank: dict[int | None, list[dict]] = {}
    for s in spans:
        by_rank.setdefault(rank_of(s), []).append(s)
    if set(by_rank) <= {None}:
        return ""
    lines = ["per-rank spans:"]
    for rank in sorted(by_rank, key=lambda r: (r is None, r)):
        rank_spans = by_rank[rank]
        label = "(parent)" if rank is None else f"rank {rank}"
        total = sum(float(s["duration"]) for s in rank_spans)
        lines.append(f"  {label}  ({len(rank_spans)} spans, "
                     f"{total * 1e3:.3f}ms total)")
        stats = aggregate_spans(rank_spans)
        for name in sorted(stats, key=lambda n: -stats[n]["total"]):
            row = stats[name]
            mean = row["total"] / max(row["count"], 1)
            tag = "~" if row["simulated"] else " "
            lines.append(
                f"    {name:<32} {row['count']:>6} "
                f"{row['total'] * 1e3:>10.3f}ms {mean * 1e3:>10.3f}ms{tag}"
            )
    lines.append(straggler_report(spans).render())
    return "\n".join(lines)


def cmd_summary(args) -> int:
    trace = load_trace(args.trace)
    if trace is None:
        return 1
    spans, events = trace["spans"], trace["events"]
    print(f"trace: {args.trace}  ({len(spans)} spans, {len(events)} events)")
    if args.spans or args.events:
        records = spans if args.spans else events
        print(_listing(sorted(records, key=lambda r: r["t"]), args.limit))
        return 0
    print(render_summary(trace))
    if args.per_rank or len({rank_of(s) for s in spans} - {None}) >= 2:
        section = per_rank_summary(spans)
        if section:
            print()
            print(section)
    return 0


def cmd_chrome(args) -> int:
    trace = load_trace(args.trace)
    if trace is None:
        return 1
    with open(args.out, "w") as fh:
        json.dump(to_chrome_trace(trace), fh)
        fh.write("\n")
    print(f"chrome trace written to {args.out} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    return 0


# ----------------------------------------------------------------------
# incident: bundles
# ----------------------------------------------------------------------
def load_bundle(path: str) -> dict:
    """A bundle directory: its manifest (``path`` added), per-process
    journals by name, and every other ``<section>.json`` by section."""
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["path"] = path
    bundle = {"manifest": manifest, "journals": {}, "sections": {}}
    for entry in sorted(os.listdir(path)):
        full = os.path.join(path, entry)
        if entry.startswith(JOURNAL_PREFIX) and entry.endswith(".jsonl"):
            who = entry[len(JOURNAL_PREFIX):-len(".jsonl")]
            bundle["journals"][who] = read_journal(full)
        elif entry.endswith(".json") and entry != "manifest.json":
            try:
                with open(full, encoding="utf-8") as fh:
                    bundle["sections"][entry[:-len(".json")]] = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
    return bundle


def _summarize_journal(entries: list[dict]) -> dict:
    """Last phase/epoch/layer, final span/log/crash of one journal."""
    summary = {
        "records": len(entries),
        "last_phase": None, "last_epoch": None, "last_layer": None,
        "last_span": None, "last_log": None, "crash": None,
    }
    for e in entries:
        # every record carries the context stamp, so the last stamp
        # that names a phase is where the rank was
        ctx = e.get("ctx") or {}
        if "phase" in ctx:
            for key in ("phase", "epoch", "layer"):
                summary["last_" + key] = ctx.get(key)
        kind = e.get("kind")
        if kind == "span":
            summary["last_span"] = e.get("name")
        elif kind == "log":
            summary["last_log"] = e.get("name")
        elif kind == "crash":
            summary["crash"] = {
                "reason": e.get("name"),
                "traceback": (e.get("attrs") or {}).get("traceback"),
            }
    return summary


def analyze(bundle: dict) -> dict:
    """Per-rank last-known state and the culprit-vs-victim ranking."""
    manifest, sections = bundle["manifest"], bundle["sections"]
    stalls = sections.get("stalls") or {}
    stalled_ranks = {int(e["rank"]) for e in stalls.get("events", [])
                     if e.get("rank") is not None}
    named_rank = manifest.get("rank")

    ranks: dict[int, dict] = {}
    other: dict[str, dict] = {}
    for who, entries in bundle["journals"].items():
        summary = _summarize_journal(entries)
        # A journal opens with the clock record its recorder was handed
        # on install, stamped with the writing process's context.
        rank = rank_of(entries[0]) if entries else None
        if rank is None:
            other[who] = summary
            continue
        summary["rank"] = rank
        phase = summary["last_phase"]
        if summary["crash"] is not None:
            role, score = "culprit", 3.0
            why = f"died ({summary['crash']['reason']})"
        elif rank in stalled_ranks:
            role, score = "culprit", 2.5
            why = f"flagged stalled in {phase or '?'}"
        elif in_active_phase(phase):
            role, score = "culprit", 2.0
            why = f"frozen mid-{phase} (active phase)"
        else:
            role, score = "victim", 0.0
            why = (f"parked in {phase or '?'} (waiting phase"
                   " — froze because of a peer)")
        if rank == named_rank:
            score += 1.0
        summary.update(role=role, score=score, why=why)
        ranks[rank] = summary

    ranking = sorted(ranks.values(), key=lambda s: (-s["score"], s["rank"]))
    telemetry = sections.get("telemetry") or {}
    return {
        "manifest": manifest,
        "telemetry": telemetry.get("workers"),
        "stall_deadline": stalls.get("deadline", 5.0),
        "ranks": ranks,
        "other_journals": other,
        "ranking": ranking,
        "culprits": [s["rank"] for s in ranking if s["role"] == "culprit"],
        "victims": [s["rank"] for s in ranking if s["role"] == "victim"],
        "stalled_ranks": sorted(stalled_ranks),
    }


def merged_timeline(bundle: dict, last: int) -> list[dict]:
    """The final ``last`` records across every journal, time-ordered."""
    merged = timeline(bundle["journals"])
    return merged[-last:] if last > 0 else merged


def render_incident(analysis: dict, bundle: dict, last: int) -> str:
    """The incident report: header, telemetry, ranking, tracebacks and
    (``last`` > 0) the merged timeline."""
    lines = [render_manifest(analysis["manifest"])]
    if analysis["telemetry"]:
        deadline = analysis["stall_deadline"]
        lines += ["", f"telemetry at the incident (stall deadline "
                      f"{deadline:g}s):",
                  render_telemetry(analysis["telemetry"],
                                   stall_deadline=deadline)]

    lines.append("")
    lines.append("culprit-vs-victim ranking (waiting phases exempt):")
    for s in analysis["ranking"]:
        epoch = s["last_epoch"] if s["last_epoch"] is not None else "-"
        layer = s["last_layer"] if s["last_layer"] is not None else "-"
        lines.append(
            f"  rank {s['rank']}: {s['role'].upper():<7} — {s['why']}; "
            f"last phase={s['last_phase'] or '?'} epoch={epoch} "
            f"layer={layer}"
        )
        if s["last_span"]:
            lines.append(f"            last span: {s['last_span']}")
        if s["last_log"]:
            lines.append(f"            last log : {s['last_log']}")

    for s in analysis["ranking"]:
        if s["crash"] is not None and s["crash"].get("traceback"):
            lines.append("")
            lines.append(f"rank {s['rank']} traceback "
                         f"({s['crash']['reason']}):")
            for tb_line in str(s["crash"]["traceback"]).rstrip().splitlines():
                lines.append("  " + tb_line)

    if last > 0:
        lines.append("")
        lines.append(f"timeline (last {last} records, all ranks):")
        lines.append(render_timeline(merged_timeline(bundle, last)))
    return "\n".join(lines)


def cmd_incident(args) -> int:
    path = args.bundle
    if path is None:
        if not args.flight_dir:
            print("need a bundle path or --flight-dir", file=sys.stderr)
            return 2
        manifest = latest_incident(args.flight_dir)
        if manifest is None:
            print(f"no incident bundles under {args.flight_dir}",
                  file=sys.stderr)
            return 1
        path = manifest["path"]
    if not os.path.isdir(path):
        print(f"not a bundle directory: {path}", file=sys.stderr)
        return 1
    bundle = load_bundle(path)
    analysis = analyze(bundle)
    if args.json:
        analysis["timeline"] = merged_timeline(bundle, args.timeline)
        json.dump(analysis, sys.stdout, indent=1, default=str)
        print()
    else:
        print(render_incident(analysis, bundle, args.timeline))
    return 0


# ----------------------------------------------------------------------
# live: the telemetry slab of a running trainer
# ----------------------------------------------------------------------
def cmd_live(args) -> int:
    with open(args.descriptor) as fh:
        descriptor = json.load(fh)
    if descriptor.get("schema") != SLAB_SCHEMA:
        print(f"{args.descriptor}: schema {descriptor.get('schema')!r} is "
              f"not {SLAB_SCHEMA!r}", file=sys.stderr)
        return 1
    slab = TelemetrySlab.attach(descriptor)
    iterations = args.iterations if args.watch else 1
    prev: list[WorkerSample] | None = None
    prev_t: float | None = None
    i = 0
    try:
        while iterations <= 0 or i < iterations:
            if i:
                time.sleep(args.interval)
            now = time.monotonic()
            samples = slab.sample(now=now)
            if args.watch:
                print("\x1b[2J\x1b[H", end="")
            print(f"live telemetry  (k={slab.k}, poll {i + 1})")
            print(render_telemetry(
                samples, prev=prev,
                dt=(now - prev_t) if prev_t is not None else None,
                stall_deadline=args.stall_deadline))
            incident = last_incident(args.flight_dir)
            if incident:
                print(incident)
            prev, prev_t = samples, now
            i += 1
    except KeyboardInterrupt:
        pass
    finally:
        # Non-owning attach: close() only detaches this process's view.
        slab.close()
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Read repro.obs traces, incident bundles and the live "
                    "telemetry slab.")
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser("summary", help="summarise a native trace")
    summary.add_argument("trace", help="a --trace JSON file")
    summary.add_argument("--spans", action="store_true",
                         help="list individual spans in time order")
    summary.add_argument("--events", action="store_true",
                         help="list individual events in time order")
    summary.add_argument("--limit", type=int, default=200,
                         help="max rows for --spans/--events (default 200)")
    summary.add_argument("--per-rank", action="store_true",
                         help="force per-rank sections (automatic for "
                              "merged multiprocess traces)")
    summary.set_defaults(run=cmd_summary)

    chrome = sub.add_parser("chrome", help="convert a native trace to "
                                           "Chrome Trace Event Format")
    chrome.add_argument("trace", help="a --trace JSON file")
    chrome.add_argument("out", help="where to write the Chrome trace")
    chrome.set_defaults(run=cmd_chrome)

    incident = sub.add_parser("incident", help="analyse an incident bundle")
    incident.add_argument("bundle", nargs="?", help="incident bundle directory")
    incident.add_argument("--flight-dir", metavar="DIR",
                          help="analyse the newest bundle under DIR")
    incident.add_argument("--timeline", type=int, default=20,
                          help="merged-timeline records to print "
                               "(0 disables; default 20)")
    incident.add_argument("--json", action="store_true",
                          help="emit the analysis as JSON instead of text")
    incident.set_defaults(run=cmd_incident)

    live = sub.add_parser("live", help="per-rank table over a running "
                                       "trainer's telemetry slab")
    live.add_argument("descriptor", help="slab descriptor JSON written by "
                                         "TelemetrySlab.write_descriptor")
    live.add_argument("--watch", action="store_true",
                      help="refresh until interrupted (default: one sample)")
    live.add_argument("--interval", type=float, default=1.0,
                      help="seconds between refreshes (default 1.0)")
    live.add_argument("--iterations", type=int, default=0,
                      help="with --watch, stop after N refreshes "
                           "(0 = until ^C)")
    live.add_argument("--stall-deadline", type=float, default=5.0,
                      help="seconds of frozen progress before a row is "
                           "marked STALLED? (default 5)")
    live.add_argument("--flight-dir", metavar="DIR",
                      help="print the newest incident under DIR after "
                           "each refresh")
    live.set_defaults(run=cmd_live)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
