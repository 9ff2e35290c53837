"""Micro-batching request queue: coalesce concurrent seed requests.

Per-seed forwards waste the vectorized aggregation kernels — a blocked
forward over 64 seeds costs barely more than over one.  Batching is
work-conserving: a worker that asks for a batch takes whatever is
queued at that moment, up to ``max_batch_size`` seeds, and never waits
while the server is idle.  Requests coalesce because they queued behind
a busy forward — the session serializes forwards, so a backlog forms by
itself exactly when batching pays.  A ``max_delay`` hold is opt-in: with
``max_delay > 0`` a batch stays open until it reaches ``max_batch_size``
or the window (anchored at the oldest pending request) expires, trading
every idle-server request's latency for larger batches.  Results are
scattered back to per-request futures by the server's workers.

Admission control lives here too: the queue is bounded, and
:meth:`MicroBatcher.submit` raises :class:`ServerOverloaded` instead of
queueing unboundedly — load shedding keeps tail latency of admitted
requests flat while the client sees an explicit, retryable rejection.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ServerOverloaded", "InferenceRequest", "MicroBatcher"]

#: process-wide request-id sequence — unique across batchers, so an
#: incident bundle can name the requests in flight unambiguously
_REQUEST_IDS = itertools.count(1)


class ServerOverloaded(RuntimeError):
    """Request rejected by admission control (bounded queue was full)."""


@dataclass
class InferenceRequest:
    """One in-flight request: seeds in, a future out."""

    kind: str                      # "predict" | "embed"
    seeds: np.ndarray
    future: Future = field(default_factory=Future)
    enqueue_time: float = field(default_factory=time.perf_counter)
    #: stamped on the serve.request span and propagated (with its batch
    #: peers') into serve.batch attrs — per-request tracing
    request_id: int = field(default_factory=lambda: next(_REQUEST_IDS))


class MicroBatcher:
    """Bounded FIFO request queue with work-conserving batching.

    A batch is whatever queued while the workers were busy, capped at
    ``max_batch_size`` seeds; the hold is opt-in.

    Parameters
    ----------
    max_batch_size:
        Close a batch once the coalesced requests carry at least this
        many seeds.
    max_delay:
        Seconds to hold an open batch waiting for more requests.  The
        default 0 holds nothing: a queued request goes to the next free
        worker at once.
    max_queue_depth:
        Admission bound: pending requests beyond this are shed with
        :class:`ServerOverloaded`.
    """

    def __init__(self, max_batch_size: int = 64, max_delay: float = 0.0,
                 max_queue_depth: int = 256):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self.max_delay = float(max_delay)
        self.max_queue_depth = int(max_queue_depth)
        self._queue: deque[InferenceRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, kind: str, seeds: np.ndarray) -> InferenceRequest:
        """Enqueue a request; raises :class:`ServerOverloaded` when the
        queue is full and ``RuntimeError`` after :meth:`close`."""
        if kind not in ("predict", "embed"):
            raise ValueError(f"kind must be 'predict' or 'embed', got {kind!r}")
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        if seeds.size == 0:
            raise ValueError("request needs at least one seed")
        request = InferenceRequest(kind=kind, seeds=seeds)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if len(self._queue) >= self.max_queue_depth:
                raise ServerOverloaded(
                    f"queue depth {len(self._queue)} at bound "
                    f"{self.max_queue_depth}; request shed"
                )
            self._queue.append(request)
            self._cond.notify()
        return request

    def next_batch(self) -> list[InferenceRequest] | None:
        """Block until a request is queued; ``None`` once closed and
        drained.

        With no hold (``max_delay == 0``) the batch is what is queued
        now.  Otherwise the window is anchored at the *oldest* pending
        request, so a request never waits more than ``max_delay`` for
        co-batching on top of its queueing time.
        """
        with self._cond:
            while True:
                while not self._queue:
                    if self._closed:
                        return None
                    self._cond.wait()
                deadline = self._queue[0].enqueue_time + self.max_delay
                while self.max_delay > 0 and self._queue:
                    pending = sum(r.seeds.size for r in self._queue)
                    if pending >= self.max_batch_size or self._closed:
                        break
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                batch: list[InferenceRequest] = []
                size = 0
                while self._queue and size < self.max_batch_size:
                    request = self._queue.popleft()
                    batch.append(request)
                    size += request.seeds.size
                if batch:
                    return batch
                # A peer drained the queue while this worker waited out
                # the delay window — go back to sleeping on admission.

    def close(self, drain: bool = True) -> None:
        """Stop admitting and wake blocked workers.

        With ``drain`` the workers still take every queued request;
        without, each queued request fails here with
        :class:`ServerOverloaded` before a worker can take it.
        """
        with self._cond:
            self._closed = True
            if not drain:
                while self._queue:
                    self._queue.popleft().future.set_exception(
                        ServerOverloaded("server stopped before execution"))
            self._cond.notify_all()
