"""Structured logging, stamped with the training context.

``get_logger(name)`` returns a :class:`StructuredLogger` whose records
are dictionaries, not format strings: a message plus free-form fields,
automatically stamped with the process's current *log context* (rank,
epoch, layer, phase — maintained by the runtimes via
:func:`set_log_context`) and the innermost open span.  Each record is

* folded into ``Registry.events`` as a ``log.<level>`` event (so logs
  travel with traces, merge across processes via
  ``Registry.merge_metrics``, and appear in exports);
* forwarded to the installed :class:`~repro.obs.flight.FlightRecorder`
  (so the black-box journal carries the last log lines a dead worker
  wrote);
* optionally emitted as a JSON line to a configured stream
  (:func:`configure`).

Usage::

    from repro.obs.log import get_logger, set_log_context

    set_log_context(rank=2)
    log = get_logger("dist.worker")
    with obs.span("dist.compute", layer=0):
        log.info("aggregation done", vertices=1024)
    # -> {"level": "info", "logger": "dist.worker", "message":
    #     "aggregation done", "rank": 2, "span": "dist.compute",
    #     "vertices": 1024}

The context is process-global (one rank per worker process, matching
the one-registry-per-process observability model), and survives
``obs.reset()`` — a worker resets its registry every epoch but stays
the same rank.
"""

from __future__ import annotations

import json
import time

from .registry import get_registry

__all__ = [
    "LEVELS",
    "LOG_EVENT_PREFIX",
    "StructuredLogger",
    "get_logger",
    "set_log_context",
    "clear_log_context",
    "configure",
]

#: numeric severities, standard-library-compatible
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: registry events carrying log records are named ``log.<level>``
LOG_EVENT_PREFIX = "log."

# Process-global context stamped into every record.  Keys are free-form;
# the distributed runtime maintains rank/epoch/layer/phase.
_CONTEXT: dict = {}

_LOGGERS: dict[str, "StructuredLogger"] = {}
_THRESHOLD = LEVELS["debug"]
_STREAM = None


def set_log_context(**fields) -> None:
    """Merge ``fields`` into the process log context; ``None`` values
    are ignored (use :func:`clear_log_context` to remove keys)."""
    for key, value in fields.items():
        if value is not None:
            _CONTEXT[key] = value


def clear_log_context(*keys: str) -> None:
    """Drop the named context keys — or the whole context when called
    with no arguments."""
    if not keys:
        _CONTEXT.clear()
        return
    for key in keys:
        _CONTEXT.pop(key, None)


def configure(stream=None, level: str = "debug") -> None:
    """Set the optional JSON-lines output stream and the minimum level
    (records below it are dropped entirely)."""
    global _STREAM, _THRESHOLD
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}")
    _STREAM = stream
    _THRESHOLD = LEVELS[level]


class StructuredLogger:
    """A named logger emitting context-stamped structured records."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def log(self, level: str, message: str, **fields) -> dict | None:
        """Emit one record; returns the payload (or ``None`` when the
        level is below the configured threshold)."""
        severity = LEVELS.get(level)
        if severity is None:
            raise ValueError(f"unknown level {level!r}")
        if severity < _THRESHOLD:
            return None
        reg = get_registry()
        payload = {"level": level, "logger": self.name,
                   "message": str(message)}
        payload.update(_CONTEXT)
        open_span = reg.current_span()
        if open_span is not None:
            payload["span"] = open_span.name
            payload["span_id"] = open_span.span_id
        if fields:
            payload.update(fields)
        # Fold into the trace (events merge across processes) ...
        reg.event(LOG_EVENT_PREFIX + level, **payload)
        # ... into the black box ...
        flight = reg.flight
        if flight is not None:
            flight.on_log(payload)
        # ... and, when configured, out as a JSON line.
        stream = _STREAM
        if stream is not None:
            stream.write(json.dumps({"t": time.time(), **payload},
                                    default=str) + "\n")
        return payload

    def debug(self, message: str, **fields) -> dict | None:
        return self.log("debug", message, **fields)

    def info(self, message: str, **fields) -> dict | None:
        return self.log("info", message, **fields)

    def warning(self, message: str, **fields) -> dict | None:
        return self.log("warning", message, **fields)

    def error(self, message: str, **fields) -> dict | None:
        return self.log("error", message, **fields)


def get_logger(name: str) -> StructuredLogger:
    """Fetch-or-create the named logger (loggers are stateless handles;
    one instance per name is kept for identity)."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = _LOGGERS[name] = StructuredLogger(name)
    return logger
