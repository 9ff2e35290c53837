"""Live cluster telemetry: the shared-memory metrics plane.

Everything else in ``repro.obs`` is *post-hoc*: spans and counters
accumulate inside each process and reach the parent only when a worker
ships its epoch results.  That is useless for the question operators
actually ask while a cluster runs — "is worker 3 stalled or just slow,
and where?" — because a hung worker looks identical to a slow one until
a barrier times out.

This module closes the gap with a :class:`TelemetrySlab`: one
fixed-layout shared-memory record per worker rank, written **lock-free**
by the owning worker — its :class:`WorkerTelemetry` is a sink of the
registry's funnel, so every record the worker emits is a heartbeat and
every ``phase`` record moves the row — and sampled by the parent (or an
external ``tools/obsview.py live``) at poll time.

Slab layout (one float64 row of :data:`NUM_FIELDS` per rank)::

    SEQNO          heartbeat sequence number; bumped LAST on every write
    PID            worker OS pid
    EPOCH          epoch currently executing
    LAYER          layer currently executing (-1 between layers)
    PHASE          phase enum (see PHASE_NAMES)
    SPANS_CLOSED   spans stored so far this epoch (progress proxy)
    FLOPS          profile.flops counter total (work so far)
    BYTES          profile bytes read+written so far
    LAST_BEAT      time.monotonic() of the last heartbeat

The single-writer-per-row discipline makes torn reads the only hazard;
readers guard against them by re-reading ``SEQNO`` after copying the
row and retrying on mismatch (:meth:`TelemetrySlab.sample`).

Stall semantics
---------------
A worker is **dead** when its process is gone (``is_alive()`` false —
surfaced as :class:`~repro.distributed.fault_tolerance.WorkerFailure`).
A worker is **stalled** when the process is alive but its heartbeat
seqno has been frozen past a deadline *while in an active phase*.
Waiting phases (barrier, done, idle) are exempt:
when rank 2 hangs in its forward, ranks 0 and 1 freeze too — blocked in
``Barrier.wait`` — and flagging them would bury the culprit.  The
:class:`StallDetector` therefore reports exactly the rank whose frozen
phase is one it was supposed to be making progress in.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .registry import Record, get_registry

__all__ = [
    "NUM_FIELDS",
    "PHASE_IDLE",
    "PHASE_FEAT_FETCH",
    "PHASE_FORWARD",
    "PHASE_BARRIER",
    "PHASE_BACKWARD",
    "PHASE_GRAD_REDUCE",
    "PHASE_PARAM_REDUCE",
    "PHASE_DONE",
    "PHASE_NAMES",
    "ACTIVE_PHASES",
    "in_active_phase",
    "is_stalled",
    "WorkerSample",
    "WorkerTelemetry",
    "TelemetrySlab",
    "StallEvent",
    "StallDetector",
    "STALL_EVENT",
    "SLAB_SCHEMA",
]

# ----------------------------------------------------------------------
# slab layout
# ----------------------------------------------------------------------
(SEQNO, PID, EPOCH, LAYER, PHASE, SPANS_CLOSED, FLOPS, BYTES,
 LAST_BEAT) = range(9)
NUM_FIELDS = 9

#: phase enum — the coarse per-worker state machine of one epoch
PHASE_IDLE = 0          # no epoch dispatched / between epochs
PHASE_FEAT_FETCH = 1    # assembling the input feature matrix
PHASE_FORWARD = 2       # layer-l aggregation + update
PHASE_BARRIER = 3       # blocked in a Barrier.wait (peer-dependent)
PHASE_BACKWARD = 4      # layer-l backward (layer -1: the optimizer step)
PHASE_GRAD_REDUCE = 5   # hidden-gradient chunk reduction
PHASE_PARAM_REDUCE = 6  # parameter-gradient chunk reduction
PHASE_DONE = 7          # epoch results shipped

PHASE_NAMES = (
    "idle", "feat_fetch", "forward", "barrier",
    "backward", "grad_reduce", "param_reduce", "done",
)

#: phases in which a frozen heartbeat means *this* worker is stuck
#: (waiting phases freeze legitimately when a peer stalls)
ACTIVE_PHASES = frozenset({
    PHASE_FEAT_FETCH, PHASE_FORWARD, PHASE_BACKWARD,
    PHASE_GRAD_REDUCE, PHASE_PARAM_REDUCE,
})

_PHASE_OF_NAME = {name: phase for phase, name in enumerate(PHASE_NAMES)}


def in_active_phase(phase: int | str | None) -> bool:
    """Whether ``phase`` (enum value or name) is one a rank is supposed
    to be making progress in — the waiting-phase exemption every reader
    (stall detector, live monitor, post-mortem) applies."""
    return _PHASE_OF_NAME.get(phase, phase) in ACTIVE_PHASES


def is_stalled(phase: int | str, frozen_for: float | None,
               deadline: float) -> bool:
    """The stall rule: progress frozen past ``deadline`` seconds while
    in an active phase."""
    return (frozen_for is not None and frozen_for > deadline
            and in_active_phase(phase))


#: event name the stall poll emits (``tools/obsview.py incident`` explains
#: stalls)
STALL_EVENT = "dist.worker_stalled"

#: schema of the descriptor an out-of-process reader attaches with
SLAB_SCHEMA = "repro.live-slab/2"

#: gauge-name prefix the parent publishes samples under
LIVE_GAUGE_PREFIX = "live.worker."


def phase_name(phase: int) -> str:
    """Human name for a phase enum value (``"?"`` when out of range)."""
    return PHASE_NAMES[phase] if 0 <= phase < len(PHASE_NAMES) else "?"


@dataclass
class WorkerSample:
    """One parent-side reading of a worker's telemetry record."""

    rank: int
    seqno: int
    pid: int
    epoch: int
    layer: int
    phase: int
    spans_closed: int
    flops: float
    bytes: float
    last_beat: float          # raw time.monotonic() of the last beat
    progress_age: float | None  # seconds since last beat (None: no beat yet)

    @property
    def phase_name(self) -> str:
        return phase_name(self.phase)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "seqno": self.seqno,
            "pid": self.pid,
            "epoch": self.epoch,
            "layer": self.layer,
            "phase": self.phase,
            "phase_name": self.phase_name,
            "spans_closed": self.spans_closed,
            "flops": self.flops,
            "bytes": self.bytes,
            "progress_age": self.progress_age,
        }


class WorkerTelemetry:
    """The worker-side writer over one slab row, as a sink of the
    registry's funnel (single-writer, lock-free: fields first, seqno
    bumped last)."""

    __slots__ = ("_row", "rank")

    def __init__(self, row: np.ndarray, rank: int):
        self._row = row
        self.rank = int(rank)
        row[PID] = float(os.getpid())

    def __call__(self, record: Record) -> None:
        """Every record is a heartbeat.  A ``phase`` record also moves
        the row to the phase / epoch / layer of its context stamp and
        refreshes the progress counters."""
        row = self._row
        if record.kind == "phase":
            phase = _PHASE_OF_NAME.get(record.name)
            if phase is not None:
                row[PHASE] = float(phase)
            ctx = record.ctx
            row[EPOCH] = float(ctx.get("epoch", row[EPOCH]))
            row[LAYER] = float(ctx.get("layer", -1))
            reg = get_registry()
            row[SPANS_CLOSED] = float(len(reg.spans))
            flops = reg.counters.get("profile.flops")
            read = reg.counters.get("profile.bytes_read")
            written = reg.counters.get("profile.bytes_written")
            row[FLOPS] = flops.total if flops is not None else 0.0
            row[BYTES] = (
                (read.total if read is not None else 0.0)
                + (written.total if written is not None else 0.0)
            )
        row[LAST_BEAT] = time.monotonic()
        row[SEQNO] += 1.0


class TelemetrySlab:
    """``k`` fixed-layout worker records in one shared-memory segment.

    Created by the parent before the workers spawn; travels to each
    worker by fork inheritance or pickling (the backing
    :class:`~repro.distributed.kvstore.SharedArray` re-attaches by
    name).  Each worker writes only its own row; the parent — or an
    out-of-process ``tools/obsview.py live`` attached via
    :meth:`write_descriptor` / :meth:`attach` — samples all rows.
    """

    def __init__(self, k: int, *, _backing=None):
        if _backing is None:
            # Imported here: kvstore imports nothing from obs, but obs is
            # imported by nearly everything and must not pull distributed
            # machinery in at module import time.
            from ..distributed.kvstore import SharedArray
            _backing = SharedArray((int(k), NUM_FIELDS), np.float64)
            _backing.array[...] = 0.0
        self._arr = _backing
        self.k = int(k)

    # -- lifecycle -----------------------------------------------------
    def reset(self) -> None:
        """Zero every record (pool respawn: stale heartbeats must not
        read as progress)."""
        self._arr.array[...] = 0.0

    def close(self) -> None:
        self._arr.close()

    # -- pickling (descriptor travels, views re-attach lazily) ---------
    def __getstate__(self):
        return {"arr": self._arr, "k": self.k}

    def __setstate__(self, state):
        self._arr = state["arr"]
        self.k = state["k"]

    # -- out-of-process attach ------------------------------------------
    def descriptor(self) -> dict:
        """JSON-serializable handle an external monitor can attach with."""
        return {"schema": SLAB_SCHEMA, "name": self._arr.name,
                "k": self.k}

    def write_descriptor(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.descriptor(), fh)
            fh.write("\n")

    @classmethod
    def attach(cls, descriptor: dict) -> "TelemetrySlab":
        """Attach to an existing slab from its :meth:`descriptor`."""
        from ..distributed.kvstore import SharedArray
        arr = SharedArray((int(descriptor["k"]), NUM_FIELDS), np.float64,
                          name=descriptor["name"], create=False)
        return cls(int(descriptor["k"]), _backing=arr)

    # -- worker side ----------------------------------------------------
    def writer(self, rank: int) -> WorkerTelemetry:
        if not (0 <= rank < self.k):
            raise ValueError("rank out of range")
        return WorkerTelemetry(self._arr.array[rank], rank)

    # -- parent side ----------------------------------------------------
    def _read_row(self, rank: int) -> np.ndarray:
        """Torn-read-guarded copy of one row (seqno re-checked)."""
        row = self._arr.array[rank]
        for _ in range(3):
            seq = row[SEQNO]
            copied = np.array(row)
            if row[SEQNO] == seq:
                return copied
        return copied  # pragma: no cover - writer outpacing 3 retries

    def sample(self, publish: bool = False,
               now: float | None = None) -> list[WorkerSample]:
        """Read every rank's record; optionally publish live gauges
        (``live.worker.{rank}.phase`` / ``.progress_age`` / ``.epoch`` /
        ``.layer`` / ``.heartbeat``) into the registry."""
        if now is None:
            now = time.monotonic()
        samples = []
        for rank in range(self.k):
            row = self._read_row(rank)
            seqno = int(row[SEQNO])
            samples.append(WorkerSample(
                rank=rank,
                seqno=seqno,
                pid=int(row[PID]),
                epoch=int(row[EPOCH]),
                layer=int(row[LAYER]),
                phase=int(row[PHASE]),
                spans_closed=int(row[SPANS_CLOSED]),
                flops=float(row[FLOPS]),
                bytes=float(row[BYTES]),
                last_beat=float(row[LAST_BEAT]),
                progress_age=(
                    max(now - float(row[LAST_BEAT]), 0.0) if seqno else None
                ),
            ))
        if publish:
            reg = get_registry()
            for s in samples:
                prefix = f"{LIVE_GAUGE_PREFIX}{s.rank}."
                reg.gauge(prefix + "phase").set(s.phase)
                reg.gauge(prefix + "epoch").set(s.epoch)
                reg.gauge(prefix + "layer").set(s.layer)
                reg.gauge(prefix + "heartbeat").set(s.seqno)
                if s.progress_age is not None:
                    reg.gauge(prefix + "progress_age").set(s.progress_age)
        return samples

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-serializable snapshot: the ``telemetry`` section of an
        incident bundle."""
        return {
            "schema": "repro.live/1",
            "k": self.k,
            "workers": [s.to_dict() for s in self.sample(now=now)],
        }


# ----------------------------------------------------------------------
# stall detection
# ----------------------------------------------------------------------
@dataclass
class StallEvent:
    """One detected stall episode (heartbeat frozen in an active phase)."""

    rank: int
    epoch: int
    layer: int
    phase: int
    stalled_seconds: float

    @property
    def phase_name(self) -> str:
        return phase_name(self.phase)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank, "epoch": self.epoch, "layer": self.layer,
            "phase": self.phase, "phase_name": self.phase_name,
            "stalled_seconds": self.stalled_seconds,
        }


class StallDetector:
    """Distinguishes *stalled* (alive, heartbeat frozen mid-work) from
    merely slow.

    The parent feeds every liveness poll's samples into
    :meth:`observe`.  A rank is flagged when its sample's
    ``progress_age`` — seconds since the worker's own last beat, the
    clock the ``live.worker.*.progress_age`` gauge and ``obsview``'s
    ``STALLED?`` column read — exceeds ``deadline`` *and* its last
    reported phase is an active one (:func:`is_stalled`).  A
    slow-but-progressing worker keeps beating with every record it
    emits and is never flagged; a worker parked at a barrier is the
    victim of someone else's stall and is never flagged either.  Each
    frozen seqno fires once; the rank re-arms when its seqno moves.
    """

    def __init__(self, deadline: float = 5.0):
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.deadline = float(deadline)
        #: rank -> the seqno it was flagged at
        self._flagged: dict[int, int] = {}

    def reset(self) -> None:
        """Forget all tracking state (pool respawn)."""
        self._flagged.clear()

    def observe(self, samples: list[WorkerSample]) -> list[StallEvent]:
        """Ingest one poll's samples; returns newly detected stalls."""
        stalls: list[StallEvent] = []
        for s in samples:
            if (self._flagged.get(s.rank) == s.seqno
                    or not is_stalled(s.phase, s.progress_age, self.deadline)):
                continue
            self._flagged[s.rank] = s.seqno
            stalls.append(StallEvent(
                rank=s.rank, epoch=s.epoch, layer=s.layer,
                phase=s.phase, stalled_seconds=s.progress_age,
            ))
        return stalls
