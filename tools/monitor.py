#!/usr/bin/env python3
"""Live per-worker cluster monitor over the shared telemetry slab.

Renders one row per worker rank — phase, epoch/layer, heartbeat seqno,
throughput (GFLOP/s from sample deltas), progress age — either from a
live :class:`~repro.obs.live.TelemetrySlab` (attach by descriptor file,
see ``TelemetrySlab.write_descriptor``) or from a JSON snapshot
(``MultiprocessTrainer.telemetry_snapshot()``).

Usage::

    python tools/monitor.py --slab /tmp/slab.json            # one sample
    python tools/monitor.py --slab /tmp/slab.json --watch    # refresh loop
    python tools/monitor.py --snapshot snap.json             # offline view

A stale row (progress age past ``--stall-deadline`` in an active phase)
is marked ``STALLED?`` — the rule (:func:`repro.obs.live.is_stalled`)
the parent's :class:`~repro.obs.live.StallDetector` applies
authoritatively.
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

from repro.obs.flight import latest_incident  # noqa: E402
from repro.obs.live import (  # noqa: E402
    TelemetrySlab,
    WorkerSample,
    is_stalled,
)

_HEADER = (
    f"  {'rank':>4}  {'pid':>7}  {'phase':<12} {'epoch':>5} {'layer':>5} "
    f"{'beats':>7} {'spans':>6} {'gflop/s':>8} {'age':>7}  status"
)


def render_table(samples: list[WorkerSample | dict],
                 prev: list[WorkerSample] | None = None,
                 dt: float | None = None,
                 stall_deadline: float = 5.0) -> str:
    """Format one poll's samples as a fixed-width table.

    Rows are live :class:`WorkerSample` objects or the ``workers``
    entries of a snapshot file (``WorkerSample.to_dict()``).
    ``prev``/``dt`` (the previous poll and the seconds between them)
    enable the throughput column: FLOP deltas over the interval.  Worker
    registries reset each epoch, so a negative delta (new epoch) renders
    as a dash rather than a bogus rate.
    """
    rows = [s if isinstance(s, dict) else s.to_dict() for s in samples]
    lines = [_HEADER]
    for i, s in enumerate(rows):
        rate = ""
        if prev is not None and dt and i < len(prev):
            dflops = s["flops"] - prev[i].flops
            if dflops >= 0:
                rate = f"{dflops / dt / 1e9:8.3f}"
        if not rate:
            rate = f"{'-':>8}"
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


def incident_line(flight_dir: str | None) -> str | None:
    """The "last incident" status line (``None`` when there is none):
    wall time, kind, rank and bundle path of the newest incident bundle
    under the flight dir."""
    if not flight_dir:
        return None
    manifest = latest_incident(flight_dir)
    if manifest is None:
        return f"last incident: none  ({flight_dir})"
    rank = manifest.get("rank")
    rank_s = f"rank {rank}" if rank is not None else "rank -"
    return (f"last incident: {manifest.get('time', '?')}  "
            f"{manifest.get('kind', '?')}  {rank_s}  "
            f"{manifest.get('path', '?')}")


def _render_snapshot(path: str, stall_deadline: float) -> int:
    with open(path) as fh:
        snap = json.load(fh)
    if snap.get("schema") != "repro.live/1":
        print(f"warning: unknown snapshot schema {snap.get('schema')!r}",
              file=sys.stderr)
    samples = snap.get("workers", [])
    print(f"telemetry snapshot: {path}  (k={snap.get('k', len(samples))})")
    print(render_table(samples, stall_deadline=stall_deadline))
    return 0


def _watch_slab(slab: TelemetrySlab, interval: float, iterations: int,
                stall_deadline: float, clear: bool,
                flight_dir: str | None = None) -> int:
    prev: list[WorkerSample] | None = None
    prev_t: float | None = None
    i = 0
    while iterations <= 0 or i < iterations:
        now = time.monotonic()
        samples = slab.sample(now=now)
        dt = (now - prev_t) if prev_t is not None else None
        if clear:
            print("\x1b[2J\x1b[H", end="")
        print(f"live telemetry  (k={slab.k}, poll {i + 1})")
        print(render_table(samples, prev=prev, dt=dt,
                           stall_deadline=stall_deadline))
        incident = incident_line(flight_dir)
        if incident:
            print(incident)
        prev, prev_t = samples, now
        i += 1
        if iterations > 0 and i >= iterations:
            break
        time.sleep(interval)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Live per-worker table over the shared telemetry slab."
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--slab", metavar="DESCRIPTOR",
                     help="slab descriptor JSON written by "
                          "TelemetrySlab.write_descriptor")
    src.add_argument("--snapshot", metavar="SNAP",
                     help="offline telemetry snapshot "
                          "(MultiprocessTrainer.telemetry_snapshot)")
    parser.add_argument("--watch", action="store_true",
                        help="refresh until interrupted (default: one sample)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between refreshes (default 1.0)")
    parser.add_argument("--iterations", type=int, default=0,
                        help="stop after N refreshes (0 = until ^C)")
    parser.add_argument("--stall-deadline", type=float, default=5.0,
                        help="seconds of frozen progress before a row is "
                             "marked STALLED? (default 5)")
    parser.add_argument("--flight-dir", metavar="DIR",
                        help="flight-recorder directory to watch: appends "
                             "a 'last incident' status line (time, kind, "
                             "rank, bundle path) to each refresh")
    args = parser.parse_args(argv)

    if args.snapshot:
        rc = _render_snapshot(args.snapshot, args.stall_deadline)
        incident = incident_line(args.flight_dir)
        if incident:
            print(incident)
        return rc

    with open(args.slab) as fh:
        descriptor = json.load(fh)
    if descriptor.get("schema") != "repro.live-slab/1":
        print(f"warning: unknown slab schema {descriptor.get('schema')!r}",
              file=sys.stderr)
    slab = TelemetrySlab.attach(descriptor)
    try:
        iterations = args.iterations if args.watch else 1
        return _watch_slab(slab, args.interval, iterations,
                           args.stall_deadline, clear=args.watch,
                           flight_dir=args.flight_dir)
    except KeyboardInterrupt:
        return 0
    finally:
        # Non-owning attach: close() only detaches this process's view.
        slab.close()


if __name__ == "__main__":
    sys.exit(main())
