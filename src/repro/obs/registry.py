"""The record, the registry and the funnel.

Every occurrence the instrumented code reports — a span closing, an
event, a log line, a phase transition, a metric sample, a crash —
becomes one :class:`Record`, is stamped with the registry's *context*
(which worker / epoch / layer / phase) and is handed exactly once to
:meth:`Registry.emit`, which walks an ordered list of *sinks*:

* the registry's own bounded store (``spans`` / ``events``; honours
  :func:`enable` / :func:`disable` and the record cap, cleared by
  :func:`reset`);
* whatever else was added with :meth:`Registry.add_sink` (a black-box
  recorder, a live heartbeat writer — this module knows none of them
  by name).  Added sinks see every record, even while the store is
  disabled or past its cap, and survive :func:`reset`.

One process-wide :class:`Registry` serves all threads: the context is
per process, the stack of open spans is per thread.  Records are
bounded (``max_records`` per list); once the cap is hit new records are
dropped and counted, so a long run cannot grow memory without bound.
Counters and gauges remain exact regardless.

Time: ``Record.t`` is seconds since the registry's origin (a raw
``perf_counter`` value, re-zeroed by :func:`reset`).  Each origin is
announced to the added sinks as one ``clock`` record, and shipped with
every :meth:`Registry.snapshot`, so records from different processes
can be placed on one timeline.
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time

from .metrics import Counter, Gauge

__all__ = [
    "Record",
    "Registry",
    "get_registry",
    "reset",
    "enable",
    "disable",
]

_NO_CONTEXT: dict = {}


class Record:
    """One telemetry occurrence.

    ``kind`` is one of ``span``, ``event``, ``log``, ``phase``,
    ``metrics``, ``crash``, ``clock``; ``name`` is what it is called
    (for a log line, its message; for a crash, its reason).  Caller
    fields live under ``attrs`` and the context stamp under ``ctx``, so
    nothing a caller passes can collide with the envelope.  ``id`` /
    ``parent`` / ``depth`` / ``simulated`` place a span in its tree;
    ``duration`` is ``None`` for point records and for a span that is
    still open.
    """

    __slots__ = ("kind", "name", "t", "duration", "attrs", "ctx",
                 "id", "parent", "depth", "simulated")

    def __init__(self, kind: str, name: str, t: float = 0.0,
                 duration: float | None = None, attrs: dict | None = None,
                 ctx: dict = _NO_CONTEXT, id: int | None = None,
                 parent: int | None = None, depth: int = 0,
                 simulated: bool = False):
        self.kind = kind
        self.name = name
        self.t = t
        self.duration = duration
        self.attrs = {} if attrs is None else attrs
        self.ctx = ctx
        self.id = id
        self.parent = parent
        self.depth = depth
        #: modeled (simulated) durations are flagged so readers can tell
        #: them apart from wall-clock measurements
        self.simulated = simulated

    def get(self, key: str, default=None):
        """A caller field, else the context stamp's: ``get("worker")`` is
        the one way to ask which process (or simulated worker) a record
        belongs to."""
        if key in self.attrs:
            return self.attrs[key]
        return self.ctx.get(key, default)

    def to_dict(self) -> dict:
        """The one serialised shape: trace files, journal lines, flight
        dumps and the worker->parent payload all carry exactly this."""
        out = {"kind": self.kind, "name": self.name, "t": self.t}
        if self.duration is not None:
            out["duration"] = self.duration
        if self.id is not None:
            out["id"] = self.id
            out["depth"] = self.depth
        if self.parent is not None:
            out["parent"] = self.parent
        if self.simulated:
            out["simulated"] = True
        if self.attrs:
            out["attrs"] = self.attrs
        if self.ctx:
            out["ctx"] = self.ctx
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Record":
        """Inverse of :meth:`to_dict` (a bare ``name`` + ``duration``
        dict reads as a span, so hand-written span lists work too)."""
        return cls(
            data.get("kind", "span"), data["name"],
            float(data.get("t", 0.0)), data.get("duration"),
            data.get("attrs"), data.get("ctx") or _NO_CONTEXT,
            data.get("id"), data.get("parent"), int(data.get("depth", 0)),
            bool(data.get("simulated", False)),
        )

    @classmethod
    def of(cls, item: "Record | dict") -> "Record":
        """``item`` as a record: readers accept live records and the
        dicts of an exported trace alike."""
        return item if isinstance(item, cls) else cls.from_dict(item)

    def __repr__(self) -> str:
        return f"Record({self.to_dict()!r})"


class _OpenSpans(threading.local):
    """The calling thread's stack of open spans."""

    def __init__(self):
        self.stack: list[Record] = []


class Registry:
    """Stamps, routes and (boundedly) stores the records of one run."""

    def __init__(self, max_records: int = 200_000):
        self.max_records = int(max_records)
        # The store is the first sink; added sinks follow in order.  The
        # list and the context outlive reset(): a worker resets its
        # registry every epoch but stays the same rank, and its black
        # box must keep recording across that boundary.
        self._sinks: list = [self._store]
        self._ctx: dict = _NO_CONTEXT
        self.generation = -1
        self._init_state()

    def _init_state(self) -> None:
        # Bumped on every reset so memoized counter handles (see
        # profile.record_op) know their cached Counter objects are stale.
        self.generation += 1
        self.origin = time.perf_counter()
        #: one id per measurement window; the multiprocess runtime
        #: propagates the parent's to every worker so merged traces can
        #: be recognized as one run
        self.trace_id = secrets.token_hex(8)
        self.spans: list[Record] = []
        self.events: list[Record] = []
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.dropped_spans = 0
        self.dropped_events = 0
        self.enabled = True
        self._open = _OpenSpans()
        self._ids = itertools.count()   # next() is atomic under the GIL

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded data and re-zero the clock."""
        self._init_state()
        self._announce_clock(self._sinks[1:])

    def now(self) -> float:
        """Seconds since this registry's origin (monotonic)."""
        return time.perf_counter() - self.origin

    def _announce_clock(self, sinks) -> None:
        """Tell added sinks the clock origin their next records count
        from (the store needs no telling: it is reset with the clock).
        ``origin`` orders records across processes — perf_counter is
        system-wide where it is CLOCK_MONOTONIC, as on Linux — and
        ``unix`` lets a reader print wall time."""
        clock = Record("clock", "origin", 0.0, ctx=self._ctx, attrs={
            "origin": self.origin, "unix": time.time(),
        })
        for sink in sinks:
            sink(clock)

    # ------------------------------------------------------------------
    # the funnel
    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Append ``sink`` (a callable taking one :class:`Record`).  It
        is told the current clock origin first, so it can place what
        follows in time."""
        self._announce_clock([sink])
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        self._sinks.remove(sink)

    @property
    def sinks(self) -> tuple:
        """The added sinks, in delivery order (the store excluded)."""
        return tuple(self._sinks[1:])

    def emit(self, record: Record) -> None:
        """Stamp ``record`` with the context and hand it to every sink."""
        record.ctx = self._ctx
        for sink in self._sinks:
            sink(record)

    def _store(self, record: Record) -> None:
        if not self.enabled:
            return
        if record.kind == "span":
            if len(self.spans) < self.max_records:
                self.spans.append(record)
            else:
                self.dropped_spans += 1
        elif len(self.events) < self.max_records:
            self.events.append(record)
        else:
            self.dropped_events += 1

    # ------------------------------------------------------------------
    # context
    # ------------------------------------------------------------------
    def set_context(self, **fields) -> None:
        """Merge ``fields`` into the context stamp; a ``None`` value
        removes its key, an absent key is left alone."""
        ctx = {**self._ctx, **fields}
        # A fresh dict every time: emitted records share the stamp by
        # reference, so the one they hold must never change under them.
        self._ctx = {k: v for k, v in ctx.items() if v is not None}

    def clear_context(self) -> None:
        self._ctx = _NO_CONTEXT

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin_span(self, name: str, attrs: dict,
                   simulated: bool = False) -> Record:
        stack = self._open.stack
        record = Record(
            "span", name, self.now(), None, attrs,
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            depth=len(stack),
            simulated=simulated,
        )
        stack.append(record)
        return record

    def end_span(self, record: Record, duration: float | None = None) -> None:
        if record.duration is not None:
            # Stale/double end: the record already has its duration and
            # was already emitted; ending it again must not disturb
            # currently open spans.
            return
        if duration is None:
            duration = self.now() - record.t
        record.duration = float(duration)
        # Work-profiled spans (see repro.obs.profile) close with a derived
        # arithmetic-intensity figure so every exported span carries the
        # roofline coordinate alongside its raw FLOP/byte counts.
        attrs = record.attrs
        if "flops" in attrs:
            moved = attrs.get("bytes_read", 0.0) + attrs.get("bytes_written", 0.0)
            attrs["arithmetic_intensity"] = (
                attrs["flops"] / moved if moved > 0 else 0.0
            )
        # Tolerate out-of-order exits defensively: pop up to the record —
        # but only if the record is actually on this thread's stack,
        # otherwise a stale end would silently discard every open span.
        stack = self._open.stack
        if any(open_span is record for open_span in stack):
            while stack:
                if stack.pop() is record:
                    break
        self.emit(record)

    def record_span(self, name: str, duration: float, /, *,
                    simulated: bool = True, **attrs) -> Record:
        """Record a span whose duration is already known (e.g. modeled
        network time), rather than measured by entry/exit.

        A *measured* duration (``simulated=False``) describes wall time
        that just elapsed — a barrier wait, a request latency — so the
        span is backdated to when that interval began; stamping it at
        record time would claim ``duration`` seconds of the future and
        overlap whatever runs next on the timeline.  Simulated spans
        keep their record-time start: their durations are modeled, not
        intervals of this clock.
        """
        record = self.begin_span(name, attrs, simulated=simulated)
        if not simulated:
            # Before end_span: every sink must see the backdated start.
            record.t = max(record.t - float(duration), 0.0)
        self.end_span(record, duration=duration)
        return record

    # ------------------------------------------------------------------
    # point records
    # ------------------------------------------------------------------
    def event(self, name: str, /, **attrs) -> None:
        self.emit(Record("event", name, self.now(), attrs=attrs))

    def log(self, message: str, /, level: str = "info", **fields) -> None:
        """One structured log line: the message is the record's name,
        ``level`` and the caller's fields its attrs, plus the name of
        the innermost span open on this thread."""
        stack = self._open.stack
        if stack:
            fields.setdefault("span", stack[-1].name)
        fields["level"] = level
        self.emit(Record("log", str(message), self.now(), attrs=fields))

    def phase(self, name: str, /, **context) -> None:
        """A phase transition: update the context (``phase`` plus e.g.
        ``epoch`` / ``layer``; see :meth:`set_context`), then emit."""
        self.set_context(phase=name, **context)
        self.emit(Record("phase", name, self.now()))

    def sample_metrics(self) -> None:
        """Emit the current counter totals and gauge values as one
        ``metrics`` record (for sinks that outlive this registry)."""
        self.emit(Record("metrics", "sample", self.now(), attrs={
            "counters": {n: c.total for n, c in self.counters.items()},
            "gauges": {n: g.value for n, g in self.gauges.items()},
        }))

    def crash(self, reason: str, traceback_text: str, /) -> None:
        """The final record of a dying process."""
        self.emit(Record("crash", reason, self.now(),
                         attrs={"traceback": traceback_text}))

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    # ------------------------------------------------------------------
    # cross-process merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything the store holds, serialised: what a worker ships
        to its parent and what a trace file contains."""
        return {
            # Raw perf_counter at the last reset: the receiver rebases
            # record times by (this origin - its own), which is exact on
            # platforms where perf_counter is system-wide.
            "origin": self.origin,
            "spans": [s.to_dict() for s in self.spans],
            "events": [e.to_dict() for e in self.events],
            "counters": {n: c.to_dict() for n, c in self.counters.items()},
            "gauges": {n: g.to_dict() for n, g in self.gauges.items()},
        }

    def merge(self, snapshot: dict | None) -> None:
        """Fold another process's :meth:`snapshot` into this registry.

        Counters add totals/currents/counts (peaks take the high-water
        mark) and gauges adopt the incoming value (peaks merge) even
        while recording is disabled — they are O(1) aggregates that
        always update, matching the live semantics.  Records respect
        ``enabled`` and the cap: their times are rebased onto this
        registry's clock, span ids are remapped onto fresh local ids
        with parent/child nesting and depth preserved, and the context
        stamp the producer applied (its ``worker``) is kept as is.  A
        producer that resets its registry per shipment (as the worker
        runtime does per epoch) is therefore merged exactly once.
        """
        if not snapshot:
            return
        for name, data in snapshot.get("counters", {}).items():
            self.counter(name).merge_dict(data)
        for name, data in snapshot.get("gauges", {}).items():
            self.gauge(name).merge_dict(data)
        offset = float(snapshot.get("origin", self.origin)) - self.origin
        spans = snapshot.get("spans", ())
        # Two passes: spans close child-before-parent, so a child's
        # ``parent`` refers to an id that appears *later* in the list —
        # the full id remap must exist before any record is built.
        id_map = {data["id"]: next(self._ids) for data in spans if "id" in data}
        for data in itertools.chain(spans, snapshot.get("events", ())):
            record = Record.from_dict(data)
            record.t += offset
            record.id = id_map.get(record.id)
            record.parent = id_map.get(record.parent)
            self._store(record)


_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-global registry all instrumentation writes to."""
    return _REGISTRY


def reset() -> None:
    """Clear the global registry (start of a run / test / benchmark)."""
    _REGISTRY.reset()


def enable() -> None:
    """Resume storing spans and events (counters always record)."""
    _REGISTRY.enabled = True


def disable() -> None:
    """Stop storing spans/events; timing still works, records are not
    kept.  Counters and gauges keep updating — they are O(1) state."""
    _REGISTRY.enabled = False
