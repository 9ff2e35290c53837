"""The flight recorder: crash-surviving black-box capture.

Everything else in ``repro.obs`` optimizes for the *surviving* process:
spans accumulate in a per-process registry and reach the parent when a
worker ships its epoch results.  A rank that dies inside a reduction
takes that registry — its spans, its metric state, its final phase —
with it, and the post-mortem question ("what was rank 1 doing when it
vanished?") becomes unanswerable.

A :class:`FlightRecorder` closes that gap the way an aircraft black box
does: every record the process emits goes to an append-only per-process
*journal* file.  It is a sink of the registry's funnel
(:meth:`Registry.add_sink`), so instrumentation
does not change and it sees every record the process emits — closed
spans, events, log lines, phase transitions, metric samples — even
while the store is disabled or past its cap, and across
:func:`repro.obs.reset`: worker processes reset their registry each
epoch, and the black box must keep recording across that boundary or
it would lose exactly the incident it exists to capture.

Journal writes stay off the hot path: the recording thread appends the
record to an in-process queue (one deque append — the worker's phase
transitions sit right at barrier boundaries, where every extra syscall
de-synchronizes ranks), and a daemon drain thread serialises and
batches them to an ``O_APPEND`` fd via ``os.write`` every
``_DRAIN_INTERVAL``.  Once written they live in the kernel page cache
and survive ``os._exit``, ``SIGKILL`` and segfaults.  A ``crash``
record (:func:`repro.obs.crash` — the worker crash hook, ``_die``)
drains the queue *synchronously* before the emit returns, so the
journal always ends with the traceback; only an uncatchable kill can
lose the final drain interval.  The parent (or ``tools/obsview.py
incident``) reads the dead rank's final moments straight from its
journal.

Every journal line is one ``Record.to_dict()``.  Record times count
from the registry's clock origin, which moves at every reset, so the
journal also carries the ``clock`` records the registry announces each
origin with: ``origin + t`` places lines from different processes on
one timeline (:func:`repro.obs.export.timeline`).

Incident bundles
----------------
:func:`write_incident_bundle` snapshots one incident into a
self-contained directory::

    incident-<kind>-<stamp>/
      manifest.json     kind, wall time, rank, reason, trace id, config
      trace.json        the calling process's native trace (repro.obs/3)
      journal-*.jsonl   copies of every per-rank journal in the flight dir,
                        and of the installed recorder's own journal
      telemetry.json    live TelemetrySlab snapshot        (section)
      stalls.json       StallDetector state + episodes     (section)
      requests.json     serving requests in flight         (section)

The multiprocess runtime dumps one on ``WorkerFailure``, on
``dist.worker_stalled`` and on epoch timeout; ``GNNServer`` snapshots
on SLO breach and shed-rate spikes; the CLI dumps one when a command
crashes.  ``tools/obsview.py incident`` analyzes a bundle into the
telemetry table, a culprit-vs-victim ranking and a per-rank timeline.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import shutil
import threading
import time

from .export import to_dict
from .registry import Record, get_registry

__all__ = [
    "FlightRecorder",
    "install_flight",
    "uninstall_flight",
    "get_flight",
    "write_incident_bundle",
    "latest_incident",
    "read_journal",
    "INCIDENT_SCHEMA",
    "INCIDENT_PREFIX",
    "JOURNAL_PREFIX",
]

INCIDENT_SCHEMA = "repro.incident/1"

#: incident bundle directories are named ``incident-<kind>-<stamp>``
INCIDENT_PREFIX = "incident-"
#: per-process journal files are named ``journal-<who>.jsonl``
JOURNAL_PREFIX = "journal-"

_BUNDLE_SEQ = itertools.count(1)

#: how long a journaled record may sit in the in-process queue before
#: the drain thread writes it out (the SIGKILL loss window; controlled
#: deaths drain synchronously and lose nothing).  Deliberately coarse:
#: on a single-core host every thread wake preempts a worker, and the
#: workers' phase records sit at barrier boundaries where one badly
#: timed context switch gates every rank.
_DRAIN_INTERVAL = 0.25

#: record kinds that drain the journal queue before the emit returns:
#: after ``crash`` the caller's next statement is ``os._exit``; the
#: once-per-epoch ``metrics`` sample is taken by a rank that is past
#: its last barrier and about to idle, so the batched write is off the
#: critical path and a completed epoch is always fully journaled even
#: if the rank is killed before its next drain tick.
_SYNC_KINDS = frozenset({"crash", "metrics"})


def _json_default(value):
    """Last-resort JSON coercion: numpy scalars/arrays, then ``str``."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(value)


def _dumps(obj) -> str:
    # Fast path: pure-builtin records (the overwhelming majority) skip
    # the default-handler machinery; numpy-bearing attrs fall back.
    try:
        return json.dumps(obj, separators=(",", ":"))
    except (TypeError, ValueError):
        return json.dumps(obj, separators=(",", ":"), default=_json_default)


class FlightRecorder:
    """Journals every record it is handed to an append-only file.

    A sink: ``registry.add_sink(recorder)`` (or :func:`install_flight`)
    and every emitted record is handed to :meth:`__call__`.  Records are
    queued by the recording thread and written out by a daemon drain
    thread within ``_DRAIN_INTERVAL``; ``crash`` / ``metrics`` records
    and :meth:`close` drain synchronously.  :func:`read_journal` reads
    the file back.
    """

    def __init__(self, journal_path: str):
        self.journal_path = journal_path
        os.makedirs(os.path.dirname(os.path.abspath(journal_path)),
                    exist_ok=True)
        # Records queue on a deque (GIL-atomic append, no syscall on the
        # recording thread) and a daemon thread drains them to a raw
        # O_APPEND fd.  Drains serialize under a lock so a synchronous
        # flush (crash path) cannot interleave with the background drain
        # and reorder records.
        self._journal_fd: int | None = os.open(
            journal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._pending: collections.deque = collections.deque()
        self._drain_lock = threading.Lock()
        self._drain_stop = threading.Event()
        self._drain_thread: threading.Thread | None = threading.Thread(
            target=self._drain_loop, name="flight-journal", daemon=True
        )
        self._drain_thread.start()

    # ------------------------------------------------------------------
    # recording (the hot path: one deque append — no locks, no
    # syscalls, serialisation left to the drain thread)
    # ------------------------------------------------------------------
    def __call__(self, record: Record) -> None:
        """Queue ``record`` for the journal."""
        self._pending.append(record)
        if record.kind in _SYNC_KINDS:
            self.flush()

    def _drain_loop(self) -> None:
        stop = self._drain_stop
        while not stop.wait(_DRAIN_INTERVAL):
            self.flush()

    def flush(self) -> None:
        """Drain queued records to the journal fd now (synchronous)."""
        pending, fd = self._pending, self._journal_fd
        if not pending or fd is None:
            return
        with self._drain_lock:
            lines = []
            while True:
                try:
                    lines.append(_dumps(pending.popleft().to_dict()))
                except IndexError:
                    break
            if lines:
                try:
                    os.write(fd, ("\n".join(lines) + "\n").encode("utf-8"))
                except OSError:  # pragma: no cover - fd closed under us
                    pass

    def close(self, drain: bool = True) -> None:
        """Stop the drain thread and close the journal fd.

        ``drain=False`` discards queued-but-unwritten records — for a
        forked child disposing of the recorder it inherited, whose
        pending records belong to (and will be written by) the parent.
        """
        self._drain_stop.set()
        thread = self._drain_thread
        if (thread is not None and thread.is_alive()
                and thread is not threading.current_thread()):
            thread.join(timeout=1.0)
        self._drain_thread = None
        if drain:
            self.flush()
        else:
            self._pending.clear()
        if self._journal_fd is not None:
            fd, self._journal_fd = self._journal_fd, None
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass


# ----------------------------------------------------------------------
# registry installation
# ----------------------------------------------------------------------
def install_flight(recorder: FlightRecorder) -> FlightRecorder:
    """Add ``recorder`` to the global registry's sinks; returns it."""
    get_registry().add_sink(recorder)
    return recorder


def get_flight() -> FlightRecorder | None:
    """The recorder among the global registry's sinks, or ``None``."""
    for sink in get_registry().sinks:
        if isinstance(sink, FlightRecorder):
            return sink
    return None


def uninstall_flight() -> FlightRecorder | None:
    """Remove (and return) the installed recorder, if any.  The caller
    owns closing it."""
    recorder = get_flight()
    if recorder is not None:
        get_registry().remove_sink(recorder)
    return recorder


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------
def read_journal(path: str) -> list[dict]:
    """Parse a journal file, skipping any truncated trailing line (a
    process killed mid-write leaves at most one partial record)."""
    entries: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return entries


# ----------------------------------------------------------------------
# incident bundles
# ----------------------------------------------------------------------
def write_incident_bundle(
    flight_dir: str,
    kind: str,
    *,
    rank: int | None = None,
    reason: str | None = None,
    config: dict | None = None,
    sections: dict | None = None,
) -> str:
    """Write one self-contained incident bundle under ``flight_dir``.

    ``sections`` maps section name -> JSON-serializable object; each
    becomes ``<name>.json`` in the bundle (e.g. ``telemetry``,
    ``stalls``, ``requests``, ``slo``).  ``trace.json`` is the calling
    process's native trace.  Every ``journal-*.jsonl`` sitting in
    ``flight_dir`` — including a dead worker's — is copied into the
    bundle, and so is the installed recorder's journal when it lives
    elsewhere.  Returns the bundle directory path.
    """
    reg = get_registry()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{INCIDENT_PREFIX}{kind}-{stamp}-"
            f"{os.getpid()}-{next(_BUNDLE_SEQ)}")
    bundle = os.path.join(flight_dir, name)
    os.makedirs(bundle, exist_ok=True)

    files: list[str] = []

    def _write(filename: str, payload) -> None:
        with open(os.path.join(bundle, filename), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=_json_default)
        files.append(filename)

    for section, payload in (sections or {}).items():
        if payload is not None:
            _write(f"{section}.json", payload)
    _write("trace.json", to_dict())

    journals = [os.path.join(flight_dir, entry)
                for entry in sorted(os.listdir(flight_dir))
                if entry.startswith(JOURNAL_PREFIX)
                and entry.endswith(".jsonl")]
    recorder = get_flight()
    if recorder is not None:
        recorder.flush()  # the copies below must include the queue
        own = os.path.abspath(recorder.journal_path)
        if os.path.dirname(own) != os.path.abspath(flight_dir):
            journals.append(own)
    for path in journals:
        entry = os.path.basename(path)
        try:
            shutil.copyfile(path, os.path.join(bundle, entry))
        except OSError:  # pragma: no cover - journal vanished
            continue
        files.append(entry)

    manifest = {
        "schema": INCIDENT_SCHEMA,
        "kind": kind,
        "time_unix": time.time(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rank": rank,
        "reason": reason,
        "pid": os.getpid(),
        "trace_id": reg.trace_id,
        "config": config or {},
        "files": files,
    }
    with open(os.path.join(bundle, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, default=_json_default)
    reg.event("flight.incident", kind=kind, worker=rank, bundle=bundle)
    return bundle


def latest_incident(flight_dir: str) -> dict | None:
    """Manifest of the newest incident bundle under ``flight_dir``
    (with its ``path`` added), or ``None``.  Feeds the "last incident"
    lines of ``tools/obsview.py live``."""
    if not flight_dir or not os.path.isdir(flight_dir):
        return None
    newest: dict | None = None
    for entry in os.listdir(flight_dir):
        if not entry.startswith(INCIDENT_PREFIX):
            continue
        manifest_path = os.path.join(flight_dir, entry, "manifest.json")
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        manifest["path"] = os.path.join(flight_dir, entry)
        if newest is None or (manifest.get("time_unix", 0.0)
                              > newest.get("time_unix", 0.0)):
            newest = manifest
    return newest
