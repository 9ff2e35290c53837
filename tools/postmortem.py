#!/usr/bin/env python3
"""Post-mortem analyzer for flight-recorder incident bundles.

Reads one self-contained incident bundle (see
:func:`repro.obs.flight.write_incident_bundle`) and answers the
questions a dead or wedged cluster can no longer answer itself:

* what kind of incident was it, when, and which rank was named;
* what was every rank doing *last* — phase, epoch, layer, final span,
  final structured log line, and (for a dead rank) its traceback,
  straight from the per-rank journals;
* a merged timeline of the final records across all ranks, around the
  incident;
* a **culprit-vs-victim ranking** reusing the stall detector's
  waiting-phase exemption (:func:`repro.obs.live.in_active_phase`): a
  rank that died, was flagged stalled, or whose last journaled phase is
  an *active* one is a culprit; ranks parked in waiting phases
  (barrier / await_grad / idle / done) froze because of someone else
  and are victims.

Journal lines are serialised records (``Record.to_dict()``): every one
carries the context stamp (``ctx``: worker, phase, epoch, layer) its
process had when it was emitted.

Usage::

    python tools/postmortem.py BUNDLE_DIR
    python tools/postmortem.py --flight-dir DIR        # newest bundle
    python tools/postmortem.py BUNDLE_DIR --timeline 40
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs.export import (  # noqa: E402
    render_timeline,
    timeline as merge_timelines,
)
from repro.obs.flight import (  # noqa: E402
    JOURNAL_PREFIX,
    latest_incident,
    read_journal,
)
from repro.obs.live import in_active_phase  # noqa: E402


def load_bundle(path: str) -> dict:
    """Load a bundle directory: manifest, per-rank journals, sections."""
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    bundle = {"path": path, "manifest": manifest, "journals": {},
              "sections": {}}
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


def _rank_of(who: str, entries: list[dict]) -> int | None:
    """Rank of a journal: from its records' stamp, else its filename."""
    for e in entries:
        worker = (e.get("ctx") or {}).get("worker")
        if worker is not None:
            return int(worker)
    if who.startswith("rank") and who[len("rank"):].isdigit():
        return int(who[len("rank"):])
    return None


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
    """Per-rank last-known state + culprit-vs-victim ranking."""
    manifest = bundle["manifest"]
    stalls = bundle["sections"].get("stalls") or {}
    stalled_ranks = {int(e["rank"]) for e in stalls.get("events", [])
                     if e.get("rank") is not None}
    named_rank = manifest.get("rank")

    ranks: dict[int, dict] = {}
    other: dict[str, dict] = {}
    for who, entries in bundle["journals"].items():
        summary = _summarize_journal(entries)
        rank = _rank_of(who, entries)
        if rank is None:
            other[who] = summary
            continue
        summary["rank"] = rank
        # --- classification: reuse the waiting-phase exemption ---------
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
        summary["role"] = role
        summary["score"] = score
        summary["why"] = why
        ranks[rank] = summary

    ranking = sorted(ranks.values(),
                     key=lambda s: (-s["score"], s["rank"]))
    return {
        "path": bundle["path"],
        "kind": manifest.get("kind"),
        "time": manifest.get("time"),
        "rank": named_rank,
        "reason": manifest.get("reason"),
        "config": manifest.get("config") or {},
        "ranks": ranks,
        "other_journals": other,
        "ranking": ranking,
        "culprits": [s["rank"] for s in ranking if s["role"] == "culprit"],
        "victims": [s["rank"] for s in ranking if s["role"] == "victim"],
        "stalled_ranks": sorted(stalled_ranks),
    }


def merged_timeline(bundle: dict, last: int = 30) -> list[dict]:
    """The final ``last`` records across every journal, time-ordered."""
    merged = merge_timelines(bundle["journals"])
    return merged[-last:] if last > 0 else merged


def render(analysis: dict, bundle: dict | None = None,
           timeline: int = 0) -> str:
    """Human-readable post-mortem report."""
    lines = [
        f"incident : {analysis['kind']}  at {analysis['time']}",
        f"bundle   : {analysis['path']}",
    ]
    if analysis["rank"] is not None:
        lines.append(f"rank     : {analysis['rank']}")
    if analysis["reason"]:
        lines.append(f"reason   : {analysis['reason']}")
    if analysis["config"]:
        cfg = ", ".join(f"{k}={v}" for k, v in analysis["config"].items())
        lines.append(f"config   : {cfg}")

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

    if timeline > 0 and bundle is not None:
        lines.append("")
        lines.append(f"timeline (last {timeline} records, all ranks):")
        lines.append(render_timeline(merged_timeline(bundle, last=timeline)))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Analyze a flight-recorder incident bundle."
    )
    parser.add_argument("bundle", nargs="?",
                        help="incident bundle directory")
    parser.add_argument("--flight-dir", metavar="DIR",
                        help="analyze the newest bundle under DIR")
    parser.add_argument("--timeline", type=int, default=20,
                        help="merged-timeline records to print "
                             "(0 disables; default 20)")
    parser.add_argument("--json", action="store_true",
                        help="emit the analysis as JSON instead of text")
    args = parser.parse_args(argv)

    path = args.bundle
    if path is None:
        if not args.flight_dir:
            parser.error("need a bundle path or --flight-dir")
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
        analysis["timeline"] = merged_timeline(bundle, last=args.timeline)
        json.dump(analysis, sys.stdout, indent=1, default=str)
        print()
    else:
        print(render(analysis, bundle=bundle, timeline=args.timeline))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
