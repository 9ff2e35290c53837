#!/usr/bin/env python3
"""Compare two ledger results files, one row per (end-to-end metric,
workload).

    python benchmarks/ledger/compare.py A.json B.json

A is the parent (or the first run), B the change (or the second run);
both come from ``run.py`` (``out/results.json``).  Each row shows both
medians, how much worse B is as a share of A (negative = better), the
bound ``BENCHMARK.json`` fixes for the metric, and a verdict:

``same``        B is not worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread is wider than the bound, so neither can be said

The spread is each run's own estimate of how far its median would move
on a rerun: the quartile distance of the samples behind the median, as a
share of the median, divided by the square root of their number.  (A
claim of a *gain* needs the paired runs the README describes; this tool
only screens for regressions and checks that two runs of one commit
agree.)  Also flags any rise in a workload's share of failed operations.
Exits 1 when a row is ``worse`` or a failure share rose.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    if report.get("schema") != "repro.ledger/1":
        raise SystemExit(f"{path}: not a ledger results file")
    return report


def failed_share(entry: dict) -> float:
    attempted = sum(p["attempted"] for p in entry.values())
    failed = sum(p["failed"] for p in entry.values())
    return failed / attempted if attempted else 0.0


def compare(a: dict, b: dict, end_to_end: list[dict]) -> tuple[list, list]:
    """Rows ``(workload, metric, a, b, worsening, bound, spread, verdict)``
    and failure flags ``(workload, share_a, share_b)``."""
    rows, flags = [], []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        if "untraced" in entry_a and "untraced" in entry_b:
            pa, pb = entry_a["untraced"], entry_b["untraced"]
            for metric in end_to_end:
                name, bound = metric["name"], metric["bound"]
                va, vb = pa["metrics"][name], pb["metrics"][name]
                worsening = (vb - va) / va if va else 0.0
                if metric["better"] == "higher":
                    worsening = -worsening
                spread = max(pa["spread"].get(name, 0.0),
                             pb["spread"].get(name, 0.0))
                if spread > bound:
                    verdict = "unresolved"
                elif worsening > bound:
                    verdict = "worse"
                else:
                    verdict = "same"
                rows.append((workload, name, va, vb, worsening, bound,
                             spread, verdict))
        share_a, share_b = failed_share(entry_a), failed_share(entry_b)
        if share_b > share_a:
            flags.append((workload, share_a, share_b))
    return rows, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    if a["smoke"] or b["smoke"]:
        print("note: a --smoke results file holds no numbers worth comparing")
    rows, flags = compare(a, b, end_to_end)
    print(f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload, name, va, vb, worsening, bound, spread, verdict in rows:
        print(f"{workload:<14} {name:<12} {va:>12.5g} {vb:>12.5g} "
              f"{worsening:>+9.1%} {bound:>6.0%} {spread:>7.1%}  {verdict}")
    for workload, share_a, share_b in flags:
        print(f"FAILED SHARE ROSE: {workload}: {share_a:.4%} -> {share_b:.4%}")
    worse = [r for r in rows if r[-1] == "worse"]
    return 1 if worse or flags else 0


if __name__ == "__main__":
    sys.exit(main())
