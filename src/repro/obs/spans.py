"""The emit API: spans and the module-level record functions.

Usage::

    from repro import obs

    with obs.span("stage.aggregation", layer=i, epoch=epoch) as s:
        nbr = layer.aggregation(h, hdg, strategy)
    elapsed = s.duration      # available after exit, even when disabled

Spans nest per thread: a span opened inside another records its parent
id and depth, so exporters can rebuild the call tree.  Timing uses
``time.perf_counter`` (monotonic); a span's ``duration`` attribute is
always populated on exit so hot paths can keep using the measured value
(e.g. to fill ``StageTimes``) without re-reading the registry.

For *modeled* durations — simulated network time that was never actually
waited for — use :func:`record_span`, which stamps the span with
``simulated: true``.

Every function here builds one :class:`~repro.obs.registry.Record` and
hands it to the global registry's funnel.  The envelope parameters
(``name``, ``message``, ``duration``, ``reason``) are positional-only:
any keyword a caller passes is a field of the record, never a clash
with the envelope.
"""

from __future__ import annotations

from .registry import Record, get_registry

__all__ = ["span", "record_span", "event", "log", "phase", "crash",
           "sample_metrics", "set_context", "clear_context", "add_sink",
           "counter", "gauge"]


class span:
    """Context manager timing one named region; attrs are free-form.

    ``scale`` multiplies the measured duration at exit — the distributed
    trainer passes ``1 / worker_speed`` so a modeled-slow worker's
    ``dist.compute`` spans carry its effective (slowed-down) time, which
    is what straggler analysis must see.
    """

    __slots__ = ("name", "attrs", "record", "scale")

    def __init__(self, name: str, /, scale: float | None = None, **attrs):
        self.name = name
        self.attrs = attrs
        self.scale = scale
        self.record: Record | None = None

    def __enter__(self) -> "span":
        self.record = get_registry().begin_span(self.name, self.attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        reg = get_registry()
        if self.scale is None:
            reg.end_span(self.record)
        else:
            measured = reg.now() - self.record.t
            reg.end_span(self.record, duration=measured * self.scale)

    @property
    def duration(self) -> float:
        """Seconds elapsed (0.0 while still open)."""
        return (self.record.duration or 0.0) if self.record else 0.0


def record_span(name: str, duration: float, /, **attrs) -> Record:
    """Record a span with an externally computed duration (simulated
    unless ``simulated=False`` says it was measured)."""
    return get_registry().record_span(name, duration, **attrs)


def event(name: str, /, **attrs) -> None:
    """Record a point-in-time event (e.g. a backend choice)."""
    get_registry().event(name, **attrs)


def log(message: str, /, level: str = "info", **fields) -> None:
    """Record one structured log line (see :meth:`Registry.log`)."""
    get_registry().log(message, level, **fields)


def phase(name: str, /, **context) -> None:
    """Record a phase transition and move the context to it."""
    get_registry().phase(name, **context)


def crash(reason: str, traceback_text: str, /) -> None:
    """Record the final moments of a dying process; a flight recorder
    has written it out by the time this returns."""
    get_registry().crash(reason, traceback_text)


def sample_metrics() -> None:
    """Emit the current counter/gauge values as one ``metrics`` record."""
    get_registry().sample_metrics()


def set_context(**fields) -> None:
    """Merge ``fields`` into the stamp every later record carries
    (``None`` removes a key)."""
    get_registry().set_context(**fields)


def clear_context() -> None:
    """Drop the whole context stamp."""
    get_registry().clear_context()


def add_sink(sink) -> None:
    """Add a sink (a callable taking one record) to the funnel."""
    get_registry().add_sink(sink)


def counter(name: str):
    """Fetch-or-create the named :class:`~repro.obs.metrics.Counter`."""
    return get_registry().counter(name)


def gauge(name: str):
    """Fetch-or-create the named :class:`~repro.obs.metrics.Gauge`."""
    return get_registry().gauge(name)
