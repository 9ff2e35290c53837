"""Straggler analysis over distributed spans.

The distributed trainer emits one ``dist.compute`` (measured, scaled by
the worker's modeled speed) and one ``dist.comm`` (simulated) span per
worker per layer.  Synchronous data-parallel training runs at the pace
of the slowest worker, so the quantity that matters is not total time
but *skew*: how much slower the worst worker is than the median.  This
module aggregates those spans into a :class:`StragglerReport`:

* per-worker compute/comm totals;
* the slowest worker and its skew ratio (max / median compute);
* workers exceeding a configurable straggler threshold;
* the critical-path worker per layer (who the barrier waited for).

Reads the ``"spans"`` of a trace (:func:`repro.obs.export.to_dict` or
a trace file), like the other readers.  Which worker and layer a span
belongs to is read with ``Record.get``: the simulated trainer names
them as span attrs (all its workers share one process), the real
runtime in each worker process's context stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .registry import Record

__all__ = [
    "StragglerReport",
    "straggler_report",
    "render_straggler_report",
    "backend_report",
    "render_backend_report",
]

COMPUTE_SPAN = "dist.compute"
COMM_SPAN = "dist.comm"

#: name of the hybrid executor's per-level backend event (kept in sync
#: with ``core.hybrid.BACKEND_EVENT`` — obs must not import core)
BACKEND_EVENT = "aggregation.backend"

#: bottom-up HDG level order, for stable report sorting
_LEVEL_ORDER = {"bottom": 0, "instances": 1, "schema": 2}


@dataclass
class StragglerReport:
    """Per-worker skew summary of one (or more) distributed runs."""

    #: worker -> {"compute": s, "comm": s, "flops": f, "bytes": b}
    per_worker: dict[int, dict] = field(default_factory=dict)
    #: worker with the largest total compute time (None when no spans)
    slowest_worker: int | None = None
    #: max / median per-worker compute (1.0 when balanced or empty)
    skew_ratio: float = 1.0
    #: max / median per-worker FLOPs — distinguishes "this worker was
    #: handed more work" from "this worker is slower at the same work"
    work_skew_ratio: float = 1.0
    #: workers whose compute exceeds threshold * median
    stragglers: list[int] = field(default_factory=list)
    threshold: float = 1.2
    #: straggler worker -> "more work" | "slower worker" (only workers in
    #: ``stragglers`` appear; requires profiled dist.compute spans)
    diagnosis: dict[int, str] = field(default_factory=dict)
    #: layer -> worker whose compute + comm bounded that layer's barrier
    critical_path: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_worker": {str(w): dict(v) for w, v in self.per_worker.items()},
            "slowest_worker": self.slowest_worker,
            "skew_ratio": self.skew_ratio,
            "work_skew_ratio": self.work_skew_ratio,
            "stragglers": list(self.stragglers),
            "threshold": self.threshold,
            "diagnosis": {str(w): d for w, d in self.diagnosis.items()},
            "critical_path": {str(l): w for l, w in self.critical_path.items()},
        }

    def render(self) -> str:
        return render_straggler_report(self)


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def straggler_report(spans: Iterable,
                     threshold: float = 1.2) -> StragglerReport:
    """Aggregate ``dist.compute``/``dist.comm`` spans into a skew report.

    Parameters
    ----------
    spans:
        The ``"spans"`` of a trace (span records or their dicts).
    threshold:
        A worker whose total compute exceeds ``threshold * median`` is
        reported as a straggler.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    per_worker: dict[int, dict] = {}
    # (layer, worker) -> compute + comm seconds, for the critical path
    layer_time: dict[tuple[int, int], float] = {}
    for s in map(Record.of, spans):
        name, duration, attrs = s.name, s.duration, s.attrs
        worker = s.get("worker")
        if name not in (COMPUTE_SPAN, COMM_SPAN) or worker is None:
            continue
        worker = int(worker)
        row = per_worker.setdefault(
            worker, {"compute": 0.0, "comm": 0.0, "flops": 0.0, "bytes": 0.0}
        )
        kind = "compute" if name == COMPUTE_SPAN else "comm"
        row[kind] += duration
        if name == COMPUTE_SPAN:
            # Profiled compute spans carry inclusive work attribution.
            row["flops"] += attrs.get("flops", 0.0)
            row["bytes"] += (
                attrs.get("bytes_read", 0.0) + attrs.get("bytes_written", 0.0)
            )
        layer = s.get("layer")
        if layer is not None:
            key = (int(layer), worker)
            layer_time[key] = layer_time.get(key, 0.0) + duration

    report = StragglerReport(per_worker=per_worker, threshold=float(threshold))
    if not per_worker:
        return report

    computes = {w: row["compute"] for w, row in per_worker.items()}
    report.slowest_worker = max(computes, key=lambda w: (computes[w], -w))
    median = _median(list(computes.values()))
    worst = computes[report.slowest_worker]
    report.skew_ratio = worst / median if median > 0 else 1.0
    if median > 0:
        report.stragglers = sorted(
            w for w, c in computes.items() if c > threshold * median
        )
    # Work skew + per-straggler diagnosis: a straggler doing threshold×
    # more FLOPs than the median worker is overloaded ("more work" — a
    # partitioning problem ADB can fix); one doing roughly median work
    # in more time is a slow machine ("slower worker" — a worker_speeds
    # problem rebalancing can only partially hide).
    work = {w: row["flops"] for w, row in per_worker.items()}
    median_work = _median(list(work.values()))
    if median_work > 0:
        report.work_skew_ratio = max(work.values()) / median_work
        for worker in report.stragglers:
            report.diagnosis[worker] = (
                "more work"
                if work[worker] > threshold * median_work
                else "slower worker"
            )
    for (layer, worker), seconds in layer_time.items():
        current = report.critical_path.get(layer)
        if current is None or seconds > layer_time[(layer, current)]:
            report.critical_path[layer] = worker
    return report


def render_straggler_report(report: StragglerReport) -> str:
    """Fixed-width text rendering of a :class:`StragglerReport`."""
    if not report.per_worker:
        return "(no distributed spans recorded)"
    profiled = any(
        r.get("flops", 0.0) > 0 for r in report.per_worker.values()
    )
    header = f"  {'worker':>6} {'compute':>11} {'comm':>11} {'share':>7}"
    if profiled:
        header += f" {'flops':>10}"
    lines = [header]
    total = sum(r["compute"] for r in report.per_worker.values()) or 1.0
    for worker in sorted(report.per_worker):
        row = report.per_worker[worker]
        mark = ""
        if worker in report.stragglers:
            mark = "  <- straggler"
            why = report.diagnosis.get(worker)
            if why:
                mark += f" ({why})"
        elif worker == report.slowest_worker:
            mark = "  <- slowest"
        line = (
            f"  {worker:>6} {row['compute'] * 1e3:9.3f}ms "
            f"{row['comm'] * 1e3:9.3f}ms {row['compute'] / total:6.1%}"
        )
        if profiled:
            line += f" {row.get('flops', 0.0):>10.3g}"
        lines.append(line + mark)
    lines.append(
        f"  slowest worker: w{report.slowest_worker}, skew ratio "
        f"(max/median compute) {report.skew_ratio:.2f} "
        f"(straggler threshold {report.threshold:.2f})"
    )
    if profiled:
        lines.append(
            f"  work skew ratio (max/median flops): "
            f"{report.work_skew_ratio:.2f}"
        )
    if report.critical_path:
        path = " ".join(
            f"L{layer}->w{worker}"
            for layer, worker in sorted(report.critical_path.items())
        )
        lines.append(f"  critical path per layer: {path}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# per-level backend ranking (the Figure 14 narrative, measured)
# ----------------------------------------------------------------------
def backend_report(events: Iterable) -> dict:
    """Rank aggregation backends per HDG level per strategy by measured
    cost.

    Aggregates the ``aggregation.backend`` events the hybrid executor
    emits (each carries the seconds, FLOPs and bytes measured around
    one backend invocation) into one row per
    ``(strategy, level, backend, order, width)`` — ``order`` and
    ``width`` say whether a declared linear Update projected before the
    reduction and the feature width the level reduced at, which is
    where a cheaper aggregation usually comes from.  Rows are sorted by
    strategy, then bottom-up level order, then bytes moved — so for a
    fixed level the first row is the cheapest backend in data movement,
    which is the ordering Figure 14 of the paper argues from (fused
    one-shot aggregation at the wide bottom level, dense at the narrow
    top).

    Reads the ``"events"`` of a trace (records or their dicts).
    """
    grouped: dict[tuple, dict] = {}
    for event in map(Record.of, events):
        if event.name != BACKEND_EVENT:
            continue
        attrs = event.attrs
        key = (
            str(attrs.get("strategy", "?")),
            str(attrs.get("level", "?")),
            str(attrs.get("backend", "?")),
            str(attrs.get("order", "?")),
            attrs.get("width"),
        )
        row = grouped.get(key)
        if row is None:
            row = grouped[key] = {
                "strategy": key[0], "level": key[1], "backend": key[2],
                "order": key[3], "width": key[4],
                "aggregator": attrs.get("aggregator"),
                "count": 0, "seconds": 0.0, "flops": 0.0,
                "bytes_read": 0.0, "bytes_written": 0.0,
            }
        row["count"] += 1
        row["seconds"] += attrs.get("seconds", 0.0)
        row["flops"] += attrs.get("flops", 0.0)
        row["bytes_read"] += attrs.get("bytes_read", 0.0)
        row["bytes_written"] += attrs.get("bytes_written", 0.0)
    rows = []
    for row in grouped.values():
        moved = row["bytes_read"] + row["bytes_written"]
        row["bytes"] = moved
        row["arithmetic_intensity"] = (
            row["flops"] / moved if moved > 0 else 0.0
        )
        rows.append(row)
    rows.sort(key=lambda r: (
        r["strategy"], _LEVEL_ORDER.get(r["level"], 99), r["bytes"]
    ))
    return {"rows": rows}


def render_backend_report(report) -> str:
    """Fixed-width rendering of :func:`backend_report` output (accepts
    the report dict or its ``rows`` list)."""
    rows = report["rows"] if isinstance(report, dict) else report
    if not rows:
        return "(no aggregation.backend events recorded)"
    lines = ["  backend cost per strategy/level (by bytes moved):"]
    lines.append(
        "    {:<8} {:<10} {:<8} {:<13} {:>5} {:>6} {:>10} {:>12} {:>12} "
        "{:>10}".format(
            "strategy", "level", "backend", "order", "width", "calls",
            "seconds", "flops", "bytes", "intensity"
        )
    )
    for row in rows:
        lines.append(
            "    {:<8} {:<10} {:<8} {:<13} {:>5} {:>6d} {:>9.4f}s {:>12.4g} "
            "{:>12.4g} {:>10.3f}".format(
                row["strategy"], row["level"], row["backend"],
                row.get("order", "?"), row.get("width") or "?", row["count"],
                row["seconds"], row["flops"], row["bytes"],
                row["arithmetic_intensity"],
            )
        )
    return "\n".join(lines)
