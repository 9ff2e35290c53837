"""``GNNServer`` — worker pool, admission control, SLO accounting.

The server owns a :class:`~repro.serve.batcher.MicroBatcher` and a pool
of worker threads.  Each worker pulls a coalesced batch, runs ONE
blocked forward through the session over the batch's seeds (the session
dedups them), and hands each request its slice of the rows (predict
requests additionally argmax).  Because both ``predict`` and ``embed``
consume the final-layer rows, mixed-kind batches coalesce into a single
forward.

Batching is work-conserving: a request that reaches an idle server runs
at once, and a batch is whatever queued while the workers were busy.
Holding a batch open for more requests (``max_delay > 0``) is opt-in.

Operational behavior:

* **Load shedding** — the batcher's queue is bounded; beyond it,
  :meth:`submit` raises :class:`~repro.serve.batcher.ServerOverloaded`
  and the shed is counted (``serve.requests_shed``).  Shedding keeps the
  p99 of *admitted* requests bounded under overload instead of letting
  queueing delay grow without limit.
* **Graceful drain** — :meth:`stop` (default ``drain=True``) closes
  admission, lets workers drain every queued request, then joins the
  pool; no accepted request is dropped.
* **SLO accounting** — every request records a ``serve.request`` span
  and adds its latency to O(1) aggregates (``serve.request_seconds``),
  batches run under ``serve.batch`` spans, queue depth is a gauge, and
  :meth:`slo_summary` rolls it all up with the session's cache stats.
  Alongside the lifetime aggregates, a rolling window (last
  ``window_seconds``, default 60 s) keeps the *exact* recent latency
  samples: every reported percentile is an order statistic of those,
  and the live p50/p99 and shed rate an operator watches are published
  as ``serve.window.*`` gauges.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from .. import obs
from ..obs.export import percentile
from ..obs.flight import write_incident_bundle
from ..obs.registry import get_registry
from .batcher import InferenceRequest, MicroBatcher, ServerOverloaded
from .session import InferenceSession

__all__ = ["GNNServer", "ServerOverloaded"]

#: obs metric names the server maintains.
REQUESTS_COUNTER = "serve.requests"
COMPLETED_COUNTER = "serve.requests_completed"
SHED_COUNTER = "serve.requests_shed"
ERRORS_COUNTER = "serve.requests_errored"
QUEUE_DEPTH_GAUGE = "serve.queue_depth"
REQUEST_SPAN = "serve.request"
BATCH_SPAN = "serve.batch"
#: lifetime latency aggregates: counter total/count give the mean, the
#: gauge's peak is the maximum
REQUEST_SECONDS_COUNTER = "serve.request_seconds"
REQUEST_SECONDS_GAUGE = "serve.request_seconds.last"
BATCH_SECONDS_COUNTER = "serve.batch_seconds"
WINDOW_P50_GAUGE = "serve.window.p50_ms"
WINDOW_P99_GAUGE = "serve.window.p99_ms"
WINDOW_SHED_GAUGE = "serve.window.shed_rate"


class _SloWindow:
    """Rolling last-``window_seconds`` latency/shed samples.

    Bounded deques under one lock: appends are O(1) from the worker
    threads, expiry is amortized O(1) (each sample is evicted once).
    ``max_samples`` caps memory under sustained overload — beyond it the
    oldest samples fall off and the window is effectively shorter, which
    biases *toward recency*, exactly what a live gauge wants.
    """

    def __init__(self, window_seconds: float = 60.0, max_samples: int = 65536):
        self.window_seconds = float(window_seconds)
        self._lock = threading.Lock()
        self._lat: deque[tuple[float, float]] = deque(maxlen=max_samples)
        self._shed: deque[float] = deque(maxlen=max_samples)

    def record_latency(self, latency: float, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._lat.append((now, float(latency)))

    def record_shed(self, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._shed.append(now)

    def _expire(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._lat and self._lat[0][0] < horizon:
            self._lat.popleft()
        while self._shed and self._shed[0] < horizon:
            self._shed.popleft()

    def summary(self, now: float | None = None) -> dict:
        """Percentiles/rates over the samples still inside the window."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._expire(now)
            lats = sorted(lat for _, lat in self._lat)
            shed = len(self._shed)
        n = len(lats)
        admitted = n + shed
        return {
            "seconds": self.window_seconds,
            "requests": n,
            "p50_ms": percentile(lats, 0.50) * 1e3,
            "p90_ms": percentile(lats, 0.90) * 1e3,
            "p99_ms": percentile(lats, 0.99) * 1e3,
            "mean_ms": (sum(lats) / n if n else 0.0) * 1e3,
            "shed": shed,
            "shed_rate": shed / admitted if admitted else 0.0,
            "throughput_rps": n / self.window_seconds,
        }


class GNNServer:
    """In-process online inference server over an :class:`InferenceSession`.

    Parameters
    ----------
    session:
        The pinned model/graph/features to serve.
    num_workers:
        Worker threads pulling batches.  Forwards serialize on the
        session's internal lock (numpy is GIL-bound anyway); extra
        workers overlap result scatter/bookkeeping with the next batch.
    max_batch_size, max_delay, max_queue_depth:
        Batching policy and admission bound (see
        :class:`~repro.serve.batcher.MicroBatcher`).  The default
        ``max_delay=0`` holds no batch open: a batch is whatever queued
        behind the running forward.
    window_seconds:
        Width of the rolling SLO window (recent p50/p99 + shed rate in
        :meth:`slo_summary`'s ``"window"`` entry).
    flight_dir, slo_p99_ms, max_shed_rate, snapshot_interval:
        Black-box capture: with a ``flight_dir`` set, :meth:`slo_summary`
        writes an incident bundle when the rolling window's p99 exceeds
        ``slo_p99_ms`` or its shed rate exceeds ``max_shed_rate``
        (rate-limited to one bundle per ``snapshot_interval`` seconds).
        The bundle's ``requests`` section names the request ids in
        flight when the breach fired.
    """

    def __init__(self, session: InferenceSession, num_workers: int = 2,
                 max_batch_size: int = 64, max_delay: float = 0.0,
                 max_queue_depth: int = 256, window_seconds: float = 60.0,
                 flight_dir: str | None = None,
                 slo_p99_ms: float | None = None,
                 max_shed_rate: float = 0.05,
                 snapshot_interval: float = 30.0):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.session = session
        self.batcher = MicroBatcher(max_batch_size, max_delay, max_queue_depth)
        self.num_workers = int(num_workers)
        self.window = _SloWindow(window_seconds)
        self._threads: list[threading.Thread] = []
        self._started = False
        self.flight_dir = flight_dir
        self.slo_p99_ms = slo_p99_ms
        self.max_shed_rate = float(max_shed_rate)
        self.snapshot_interval = float(snapshot_interval)
        self._last_snapshot = 0.0
        # Per-worker-thread view of the batch being executed (request
        # descriptors).  Single-writer per key under the GIL, so the
        # snapshot path reads it without a lock.
        self._active_batches: dict[str, list] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "GNNServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        for i in range(self.num_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"gnn-serve-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: close admission, optionally drain, join workers.

        With ``drain=True`` every already-accepted request completes;
        with ``drain=False`` still-queued requests fail with
        :class:`ServerOverloaded`.
        """
        self.batcher.close(drain=drain)
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads.clear()

    def __enter__(self) -> "GNNServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, kind: str, seeds: np.ndarray) -> Future:
        """Async request; the returned future resolves to the response
        array.  Raises :class:`ServerOverloaded` when shed."""
        if not self._started:
            raise RuntimeError("server not started")
        obs.counter(REQUESTS_COUNTER).add(1)
        try:
            request = self.batcher.submit(kind, seeds)
        except ServerOverloaded:
            obs.counter(SHED_COUNTER).add(1)
            self.window.record_shed()
            raise
        obs.gauge(QUEUE_DEPTH_GAUGE).set(len(self.batcher))
        return request.future

    def predict(self, seeds: np.ndarray, timeout: float | None = 30.0) -> np.ndarray:
        """Synchronous argmax class predictions for ``seeds``."""
        return self.submit("predict", seeds).result(timeout=timeout)

    def embed(self, seeds: np.ndarray, timeout: float | None = 30.0) -> np.ndarray:
        """Synchronous final-layer rows for ``seeds``."""
        return self.submit("embed", seeds).result(timeout=timeout)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        registry = get_registry()
        while True:
            batch = self.batcher.next_batch()
            if batch is None:
                return
            obs.gauge(QUEUE_DEPTH_GAUGE).set(len(self.batcher))
            self._execute(batch, registry)

    def _execute(self, batch: list[InferenceRequest], registry) -> None:
        all_seeds = np.concatenate([r.seeds for r in batch])
        request_ids = [r.request_id for r in batch]
        worker = threading.current_thread().name
        self._active_batches[worker] = [
            {"request_id": r.request_id, "kind": r.kind,
             "seeds": int(r.seeds.size)} for r in batch
        ]
        batch_span = obs.span(BATCH_SPAN, requests=len(batch),
                              seeds=int(all_seeds.size),
                              request_ids=request_ids)
        try:
            with batch_span:
                rows = self.session.embed(all_seeds)
        except Exception as exc:  # propagate the failure to every caller
            obs.counter(ERRORS_COUNTER).add(len(batch))
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            self._active_batches.pop(worker, None)
            return
        finally:
            obs.counter(BATCH_SECONDS_COUNTER).add(batch_span.duration)
        offset = 0
        for request in batch:
            span_len = request.seeds.size
            result = rows[offset : offset + span_len]
            offset += span_len
            if request.kind == "predict":
                result = result.argmax(axis=1)
            else:
                result = result.copy()
            latency = max(time.perf_counter() - request.enqueue_time, 0.0)
            request.future.set_result(result)
            self._record_latency(latency)
            registry.record_span(
                REQUEST_SPAN, latency,
                simulated=False, kind=request.kind, seeds=int(span_len),
                request_id=request.request_id,
            )
        self._active_batches.pop(worker, None)

    def _record_latency(self, latency: float) -> None:
        """Account one completed request: the O(1) lifetime aggregates
        and one exact sample in the rolling window."""
        obs.counter(COMPLETED_COUNTER).add(1)
        obs.counter(REQUEST_SECONDS_COUNTER).add(latency)
        obs.gauge(REQUEST_SECONDS_GAUGE).set(latency)
        self.window.record_latency(latency)

    # ------------------------------------------------------------------
    # SLO accounting
    # ------------------------------------------------------------------
    def slo_summary(self) -> dict:
        """Roll-up of request/batch latency, shedding and cache health.

        Lifetime aggregates plus a ``"window"`` entry with last-
        ``window_seconds`` p50/p90/p99/shed-rate; the window numbers are
        also published as ``serve.window.*`` gauges so a metrics poller
        sees the live values without calling this method.

        ``latency_ms.{count,mean,max}`` and ``batches`` are lifetime
        figures (since the last ``obs.reset()``) from O(1) aggregates;
        ``latency_ms.{p50,p90,p99}`` are exact order statistics of the
        latency samples the rolling window still holds — the same
        numbers as ``window.p*_ms`` — not a lifetime approximation.
        """
        reg = get_registry()
        window = self.window.summary()
        reg.gauge(WINDOW_P50_GAUGE).set(window["p50_ms"])
        reg.gauge(WINDOW_P99_GAUGE).set(window["p99_ms"])
        reg.gauge(WINDOW_SHED_GAUGE).set(window["shed_rate"])
        latency = reg.counter(REQUEST_SECONDS_COUNTER)
        batches = reg.counter(BATCH_SECONDS_COUNTER)
        requests = reg.counter(REQUESTS_COUNTER).total
        shed = reg.counter(SHED_COUNTER).total
        summary = {
            "requests": int(requests),
            "completed": int(reg.counter(COMPLETED_COUNTER).total),
            "shed": int(shed),
            "shed_rate": shed / requests if requests else 0.0,
            "errors": int(reg.counter(ERRORS_COUNTER).total),
            "queue_depth_peak": reg.gauge(QUEUE_DEPTH_GAUGE).to_dict()["peak"],
            "latency_ms": {
                "count": latency.count,
                "mean": latency.total / max(latency.count, 1) * 1e3,
                "p50": window["p50_ms"],
                "p90": window["p90_ms"],
                "p99": window["p99_ms"],
                "max": (reg.gauge(REQUEST_SECONDS_GAUGE).to_dict()["peak"]
                        or 0.0) * 1e3,
            },
            "batches": {
                "count": batches.count,
                "mean_ms": batches.total / max(batches.count, 1) * 1e3,
            },
            "window": window,
            "session": self.session.stats(),
        }
        self._maybe_snapshot(summary)
        return summary

    def _maybe_snapshot(self, summary: dict) -> str | None:
        """Write an incident bundle when the rolling window breaches the
        SLO (p99 over ``slo_p99_ms``) or shed rate spikes past
        ``max_shed_rate`` — at most one per ``snapshot_interval``."""
        if self.flight_dir is None:
            return None
        window = summary["window"]
        reason = None
        kind = None
        if (self.slo_p99_ms is not None and window["requests"] > 0
                and window["p99_ms"] > self.slo_p99_ms):
            kind = "slo_breach"
            reason = (f"window p99 {window['p99_ms']:.1f}ms over SLO "
                      f"{self.slo_p99_ms:.1f}ms")
        elif window["shed"] > 0 and window["shed_rate"] > self.max_shed_rate:
            kind = "shed_spike"
            reason = (f"window shed rate {window['shed_rate']:.3f} over "
                      f"{self.max_shed_rate:.3f}")
        if kind is None:
            return None
        now = time.monotonic()
        if now - self._last_snapshot < self.snapshot_interval:
            return None
        self._last_snapshot = now
        in_flight = [dict(r) for reqs in list(self._active_batches.values())
                     for r in reqs]
        return write_incident_bundle(
            self.flight_dir, kind, reason=reason,
            config={
                "num_workers": self.num_workers,
                "max_batch_size": self.batcher.max_batch_size,
                "max_delay": self.batcher.max_delay,
                "max_queue_depth": self.batcher.max_queue_depth,
                "slo_p99_ms": self.slo_p99_ms,
                "max_shed_rate": self.max_shed_rate,
            },
            sections={
                "slo": summary,
                "requests": {
                    "in_flight": in_flight,
                    "queued": len(self.batcher),
                },
            },
        )
