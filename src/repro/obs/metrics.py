"""Typed metric primitives: counters and gauges.

A :class:`Counter` is a monotone accumulator with *three* readouts:

* ``total`` — running sum of everything ever added (e.g. cumulative
  bytes materialized by sparse aggregation across a whole run);
* ``current`` — live value, i.e. ``add``s minus ``release``s (bytes
  materialized and not yet freed);
* ``peak`` — high-water mark of ``current`` (the number a memory-budget
  experiment actually cares about, cf. Table 5).

Callers that never ``release`` get ``peak == current == total``, which
degrades gracefully to a plain running total.

A :class:`Gauge` is a last-write-wins value that also remembers its
maximum, for quantities that are set rather than accumulated (queue
depths, per-epoch loss, partition imbalance factors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Counter", "Gauge"]


@dataclass
class Counter:
    """Accumulator with running-total *and* peak (high-water) semantics."""

    name: str
    total: float = 0.0
    current: float = 0.0
    peak: float = 0.0
    #: number of ``add`` calls, so averages can be derived
    count: int = 0

    def add(self, amount: float) -> None:
        """Add ``amount`` to the running total and the live value."""
        amount = float(amount)
        self.total += amount
        self.current += amount
        self.count += 1
        if self.current > self.peak:
            self.peak = self.current

    def release(self, amount: float) -> None:
        """Lower the live value (resources freed); ``total`` is untouched."""
        self.current = max(0.0, self.current - float(amount))

    def reset(self) -> None:
        self.total = self.current = self.peak = 0.0
        self.count = 0

    def merge_dict(self, data: dict) -> None:
        """Fold another process's exported counter state into this one.

        Totals, live values and call counts add; the peak takes the
        high-water mark of either side's peak and the combined live
        value (the two processes' peaks need not have coincided, so
        summing peaks would overstate — max is the defensible bound).
        """
        self.total += float(data.get("total", 0.0))
        self.current += float(data.get("current", 0.0))
        self.count += int(data.get("count", 0))
        self.peak = max(self.peak, float(data.get("peak", 0.0)), self.current)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "current": self.current,
            "peak": self.peak,
            "count": self.count,
        }


@dataclass
class Gauge:
    """Last-write-wins value with a remembered maximum."""

    name: str
    value: float = 0.0
    peak: float = field(default=float("-inf"))
    #: number of ``set`` calls
    count: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.count += 1
        if self.value > self.peak:
            self.peak = self.value

    def merge_dict(self, data: dict) -> None:
        """Fold another process's exported gauge state into this one:
        adopt the incoming value (last write wins across the merge),
        keep the larger peak, add the set counts.  A never-set incoming
        gauge (count 0) leaves this one untouched."""
        incoming = int(data.get("count", 0))
        if incoming <= 0:
            return
        self.value = float(data.get("value", 0.0))
        self.count += incoming
        peak = data.get("peak")
        if peak is not None and float(peak) > self.peak:
            self.peak = float(peak)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "peak": self.peak if self.count else None,
            "count": self.count,
        }
