"""Op-level work accounting: FLOPs and bytes, attributed to spans.

The time-only tracer (spans) answers *how long* a stage took; this module answers *how much work* it did.  Every instrumented
numerical op — matmul in the autograd tensor, the scatter reductions,
``segment_reduce_csr``, softmax, the hybrid executor's gather and dense
reduce — calls :func:`record_op` with its FLOP count and the bytes it
read and wrote.  The work is accumulated three ways at once:

1. **Global counters** — ``profile.flops`` / ``profile.bytes_read`` /
   ``profile.bytes_written`` plus two per-op counters
   (``profile.op.<op>.flops``, ``profile.op.<op>.bytes``), so totals
   survive the span-record cap and export through every existing
   exporter for free.
2. **Inclusive span attribution** — the work is added to *every* span
   currently open on the calling thread, so a matmul executed inside
   ``stage.update`` inside ``engine.train_epoch`` shows up on both.
   When a work-carrying span closes, the registry stamps its
   ``arithmetic_intensity`` (FLOPs per byte moved) into its attrs.
3. **Reports** — :func:`profile_report` aggregates a trace's per-op and
   per-span totals into a roofline-style JSON document;
   :func:`render_profile_report` pretty-prints it (the work-profile part
   of :func:`repro.obs.export.render_summary`).

FLOP conventions (documented per-op in ``docs/observability.md``):
a matmul ``(n,k) @ (k,m)`` costs ``2*n*k*m`` FLOPs (multiply + add);
``scatter_add`` 1 FLOP per scattered element, ``scatter_mean`` 2,
``scatter_max``/``min`` 1 comparison, ``scatter_softmax`` ~5;
``segment_reduce_csr`` sum/mean ``2 * total * dim`` (the SpMM
convention), ``segment_attention`` that SpMM plus ~5 per edge for
the softmax (its row scores are a matmul or a carried column of one,
counted there); softmax/log-softmax
~5 FLOPs per element; pure data movement (gather, concat) is 0 FLOPs
but nonzero bytes.  Bytes are the
logical tensor traffic (operand ``nbytes`` read, result ``nbytes``
written), not cache-aware — arithmetic intensity derived from them is
an upper bound on the true intensity, which is the standard roofline
convention for first-order analysis.

Work accounting is always on: the cost per op is two dict lookups and a
few float adds.
"""

from __future__ import annotations

from .analysis import backend_report, render_backend_report
from .registry import Registry, get_registry

__all__ = [
    "FLOPS_COUNTER",
    "BYTES_READ_COUNTER",
    "BYTES_WRITTEN_COUNTER",
    "OP_COUNTER_PREFIX",
    "WORK_RATE_SPANS",
    "record_op",
    "work_snapshot",
    "work_since",
    "profile_report",
    "render_profile_report",
]

#: global running totals (Counter.total is the figure of record)
FLOPS_COUNTER = "profile.flops"
BYTES_READ_COUNTER = "profile.bytes_read"
BYTES_WRITTEN_COUNTER = "profile.bytes_written"
#: per-op counters live under ``profile.op.<op>.flops`` / ``.bytes``
OP_COUNTER_PREFIX = "profile.op."

#: Span names whose FLOP/s and bytes/s are rendered as Chrome-trace
#: counter tracks and searched for peak achieved rates.  These spans
#: never nest within each other, so one counter track per process lane
#: stays consistent.  (Hardcoded here — importing the stage names from
#: ``core.engine`` would invert the layering.)
WORK_RATE_SPANS = (
    "stage.neighbor_selection",
    "stage.aggregation",
    "stage.update",
    "stage.backward",
    "dist.compute",
)

# record_op runs on every tensor op, so its counter handles are memoized
# per (registry identity, registry generation): _COUNTER_CACHE holds the
# three global counters, _OP_COUNTER_CACHE one (flops, bytes) tuple per
# op name (the string concatenation happens once per op, not per call).
# Registry.reset() recreates Counter objects, so the generation stamp —
# bumped by _init_state — invalidates both caches.
_COUNTER_CACHE: tuple | None = None
_OP_COUNTER_CACHE: dict[str, tuple] = {}


def _cached_counters(reg: Registry, op: str) -> tuple:
    global _COUNTER_CACHE
    cache = _COUNTER_CACHE
    if (cache is None or cache[0] is not reg
            or cache[1] != reg.generation):
        cache = _COUNTER_CACHE = (
            reg, reg.generation,
            reg.counter(FLOPS_COUNTER),
            reg.counter(BYTES_READ_COUNTER),
            reg.counter(BYTES_WRITTEN_COUNTER),
        )
        _OP_COUNTER_CACHE.clear()
    handles = _OP_COUNTER_CACHE.get(op)
    if handles is None:
        handles = _OP_COUNTER_CACHE[op] = (
            reg.counter(OP_COUNTER_PREFIX + op + ".flops"),
            reg.counter(OP_COUNTER_PREFIX + op + ".bytes"),
        )
    return cache[2], cache[3], cache[4], handles[0], handles[1]


def record_op(op: str, *, flops: float = 0.0, bytes_read: float = 0.0,
              bytes_written: float = 0.0) -> None:
    """Account one executed op: global + per-op counters, and inclusive
    attribution to every span currently open on this thread."""
    reg = get_registry()
    flops = float(flops)
    bytes_read = float(bytes_read)
    bytes_written = float(bytes_written)
    flops_c, read_c, written_c, op_flops_c, op_bytes_c = (
        _cached_counters(reg, op)
    )
    flops_c.add(flops)
    read_c.add(bytes_read)
    written_c.add(bytes_written)
    op_flops_c.add(flops)
    op_bytes_c.add(bytes_read + bytes_written)
    for record in reg._open.stack:
        attrs = record.attrs
        attrs["flops"] = attrs.get("flops", 0.0) + flops
        attrs["bytes_read"] = attrs.get("bytes_read", 0.0) + bytes_read
        attrs["bytes_written"] = (
            attrs.get("bytes_written", 0.0) + bytes_written
        )


# ----------------------------------------------------------------------
# snapshots / deltas
# ----------------------------------------------------------------------
def work_snapshot() -> dict:
    """Current global work totals, for later differencing."""
    reg = get_registry()
    return {
        "flops": reg.counter(FLOPS_COUNTER).total,
        "bytes_read": reg.counter(BYTES_READ_COUNTER).total,
        "bytes_written": reg.counter(BYTES_WRITTEN_COUNTER).total,
    }


def work_since(snapshot: dict) -> dict:
    """Work performed since ``snapshot`` (:func:`work_snapshot`)."""
    now = work_snapshot()
    return {key: now[key] - snapshot.get(key, 0.0) for key in now}


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def profile_report(trace: dict) -> dict:
    """Roofline-style work report over a native trace
    (:func:`repro.obs.export.to_dict`).

    ``ops`` is reconstructed from the ``profile.op.*`` counters.
    ``spans`` aggregates the inclusive work of every span that carried
    attribution, per span *name*: a parent sees its children's work, so
    rows are per-name views, not a partition — do not sum across nesting
    levels.  ``roofline`` holds the peak FLOP/s and bytes/s over single
    :data:`WORK_RATE_SPANS` spans (the best *interval*, which is what a
    roofline plots, not the per-name aggregate).  ``backends`` are the
    measured-cost rows of the hybrid executor's per-level
    ``aggregation.backend`` events.
    """
    counters = trace["counters"]
    ops: dict[str, dict] = {}
    for name, counter in counters.items():
        if not name.startswith(OP_COUNTER_PREFIX):
            continue
        op, _, key = name[len(OP_COUNTER_PREFIX):].rpartition(".")
        if key not in ("flops", "bytes"):
            continue
        row = ops.setdefault(op, {"calls": 0, "flops": 0.0, "bytes": 0.0})
        row[key] = counter["total"]
        row["calls"] = max(row["calls"], counter["count"])
    for row in ops.values():
        row["arithmetic_intensity"] = _ratio(row["flops"], row["bytes"])

    spans: dict[str, dict] = {}
    peak_flops = peak_bytes = 0.0
    for span in trace["spans"]:
        attrs = span.get("attrs", {})
        if "flops" not in attrs and "bytes_read" not in attrs:
            continue
        flops = attrs.get("flops", 0.0)
        read = attrs.get("bytes_read", 0.0)
        written = attrs.get("bytes_written", 0.0)
        duration = span["duration"]
        row = spans.get(span["name"])
        if row is None:
            row = spans[span["name"]] = {
                "count": 0, "seconds": 0.0, "flops": 0.0,
                "bytes_read": 0.0, "bytes_written": 0.0,
            }
        row["count"] += 1
        row["seconds"] += duration
        row["flops"] += flops
        row["bytes_read"] += read
        row["bytes_written"] += written
        if span["name"] in WORK_RATE_SPANS and duration > 0:
            peak_flops = max(peak_flops, flops / duration)
            peak_bytes = max(peak_bytes, (read + written) / duration)
    for row in spans.values():
        moved = row["bytes"] = row["bytes_read"] + row["bytes_written"]
        row["arithmetic_intensity"] = _ratio(row["flops"], moved)
        row["flops_per_sec"] = _ratio(row["flops"], row["seconds"])
        row["bytes_per_sec"] = _ratio(moved, row["seconds"])

    def total(name: str) -> float:
        return counters[name]["total"] if name in counters else 0.0

    flops = total(FLOPS_COUNTER)
    bytes_read = total(BYTES_READ_COUNTER)
    bytes_written = total(BYTES_WRITTEN_COUNTER)
    return {
        "totals": {
            "flops": flops,
            "bytes_read": bytes_read,
            "bytes_written": bytes_written,
            "bytes": bytes_read + bytes_written,
            "arithmetic_intensity": _ratio(flops, bytes_read + bytes_written),
        },
        "ops": dict(sorted(ops.items(), key=lambda kv: -kv[1]["flops"])),
        "spans": spans,
        "backends": backend_report(trace["events"])["rows"],
        "roofline": {"peak_flops_per_sec": peak_flops,
                     "peak_bytes_per_sec": peak_bytes},
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_quantity(value: float, unit: str) -> str:
    for scale, prefix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= scale:
            return f"{value / scale:.2f} {prefix}{unit}"
    return f"{value:.0f} {unit}"


def render_profile_report(report: dict) -> str:
    """Human-readable rendering of :func:`profile_report`."""
    lines = ["work profile:"]
    totals = report["totals"]
    lines.append(
        "  totals: {} | {} read, {} written | intensity {:.3f} FLOP/B".format(
            _fmt_quantity(totals["flops"], "FLOP"),
            _fmt_quantity(totals["bytes_read"], "B"),
            _fmt_quantity(totals["bytes_written"], "B"),
            totals["arithmetic_intensity"],
        )
    )
    roof = report.get("roofline", {})
    if roof:
        lines.append(
            "  achieved peaks: {}/s | {}/s".format(
                _fmt_quantity(roof.get("peak_flops_per_sec", 0.0), "FLOP"),
                _fmt_quantity(roof.get("peak_bytes_per_sec", 0.0), "B"),
            )
        )
    ops = report.get("ops", {})
    if ops:
        lines.append("  ops (by FLOPs):")
        lines.append("    {:<24} {:>8} {:>12} {:>12} {:>10}".format(
            "op", "calls", "flops", "bytes", "intensity"))
        for op, row in ops.items():
            lines.append(
                "    {:<24} {:>8d} {:>12} {:>12} {:>10.3f}".format(
                    op, row["calls"],
                    _fmt_quantity(row["flops"], ""),
                    _fmt_quantity(row["bytes"], ""),
                    row["arithmetic_intensity"],
                )
            )
    spans = report.get("spans", {})
    if spans:
        lines.append("  spans (inclusive work by name):")
        lines.append(
            "    {:<28} {:>6} {:>10} {:>10} {:>10} {:>9} {:>11}".format(
                "span", "count", "seconds", "flops", "bytes",
                "intensity", "flops/s",
            )
        )
        ordered = sorted(spans.items(), key=lambda kv: -kv[1]["flops"])
        for name, row in ordered:
            lines.append(
                "    {:<28} {:>6d} {:>9.4f}s {:>10} {:>10} "
                "{:>9.3f} {:>11}".format(
                    name, row["count"], row["seconds"],
                    _fmt_quantity(row["flops"], ""),
                    _fmt_quantity(row["bytes"], ""),
                    row["arithmetic_intensity"],
                    _fmt_quantity(row["flops_per_sec"], ""),
                )
            )
    backends = report.get("backends", [])
    if backends:
        lines.append(render_backend_report(backends))
    return "\n".join(lines)

