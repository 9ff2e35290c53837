"""The ``Comm`` abstraction: one accounting interface, two backends.

Every distributed code path talks to a :class:`Comm`:

* :class:`SimulatedComm` — the deterministic test harness.  The paper's
  testbed is a 16-machine cluster with 3.25 GB/s NICs; when no cluster
  is available the runtime executes all workers in one process and
  *models* network time with the standard alpha-beta model: a message of
  ``b`` bytes costs ``alpha + b / beta`` seconds, and each worker's
  per-step communication time is the sum over messages it sends plus
  receives (workers send and receive concurrently with respect to each
  other, but serially with respect to their own messages — a
  conservative, standard assumption).
* :class:`ProcessComm` — the real multi-process backend used by
  :class:`~repro.distributed.runtime.MultiprocessTrainer`.  Workers are
  OS processes; synchronization is a :class:`multiprocessing.Barrier`
  and reductions run over shared-memory numpy slabs.  It keeps the
  same byte/message accounting so traces and epoch logs carry
  comparable traffic totals.

Both backends reduce gradients with :meth:`Comm.reduce_slabs`, a
ring-style reduce-scatter: each rank owns one contiguous chunk and sums
it across the ranks' slabs in rank order, so the result is bitwise
deterministic and identical whichever backend ran the ranks.

Bandwidth defaults are scaled down consistently with the dataset scale so
compute and communication remain comparable, matching the compute/comm
ratios the paper's optimizations (batching, overlap) act on.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from ..obs import counter as _obs_counter

__all__ = [
    "CommConfig",
    "Comm",
    "SimulatedComm",
    "ProcessComm",
    "BYTES_COUNTER",
    "MESSAGES_COUNTER",
]

#: obs counters fed by every cross-worker send, so traces carry global
#: traffic totals without the caller having to thread them through.
BYTES_COUNTER = "comm.bytes"
MESSAGES_COUNTER = "comm.messages"


@dataclass(frozen=True)
class CommConfig:
    """Alpha-beta network model parameters."""

    latency: float = 5e-5          # seconds per message
    bandwidth: float = 200e6       # bytes/second (scaled-down 3.25 GB/s NIC)

    def message_time(self, nbytes: float, messages: int = 1) -> float:
        return self.latency * messages + nbytes / self.bandwidth


@dataclass
class _WorkerTraffic:
    sent_bytes: float = 0.0
    sent_messages: int = 0
    recv_bytes: float = 0.0
    recv_messages: int = 0


class Comm:
    """Per-superstep message accounting across ``k`` workers.

    The accounting and the alpha-beta cost model are backend-independent:
    the simulated backend uses :meth:`worker_step_time` as the *actual*
    communication time, the multiprocess backend records the same byte
    and message totals next to measured wall-clock synchronization time
    so the two runtimes produce comparable traces.
    """

    def __init__(self, k: int, config: CommConfig | None = None):
        if k <= 0:
            raise ValueError("need at least one worker")
        self.k = k
        self.config = config or CommConfig()
        self._traffic = [_WorkerTraffic() for _ in range(k)]
        self.total_bytes = 0.0
        self.total_messages = 0
        #: the rank this copy acts for, in backends with one process per
        #: rank (see :meth:`ProcessComm.bind`)
        self.rank: int | None = None

    def send(self, src: int, dst: int, nbytes: float, messages: int = 1) -> None:
        """Record ``messages`` messages totalling ``nbytes`` from src to dst."""
        if not (0 <= src < self.k and 0 <= dst < self.k):
            raise ValueError("worker id out of range")
        if src == dst:
            return  # local delivery is free
        self._traffic[src].sent_bytes += nbytes
        self._traffic[src].sent_messages += messages
        self._traffic[dst].recv_bytes += nbytes
        self._traffic[dst].recv_messages += messages
        self.total_bytes += nbytes
        self.total_messages += messages
        _obs_counter(BYTES_COUNTER).add(nbytes)
        _obs_counter(MESSAGES_COUNTER).add(messages)

    def worker_step_time(self, worker: int) -> float:
        """Modeled communication seconds for one worker this superstep."""
        t = self._traffic[worker]
        return self.config.message_time(
            t.sent_bytes + t.recv_bytes, t.sent_messages + t.recv_messages
        )

    def step_times(self) -> np.ndarray:
        return np.array([self.worker_step_time(w) for w in range(self.k)])

    def end_step(self) -> np.ndarray:
        """Return per-worker comm times and reset the superstep counters."""
        times = self.step_times()
        self._traffic = [_WorkerTraffic() for _ in range(self.k)]
        return times

    def allreduce_time(self, nbytes: float) -> float:
        """Ring-allreduce cost for a buffer of ``nbytes`` (parameter sync)."""
        if self.k == 1:
            return 0.0
        steps = 2 * (self.k - 1)
        chunk = nbytes / self.k
        return steps * self.config.message_time(chunk, 1)

    def allreduce_traffic(self, nbytes: float) -> tuple[float, int]:
        """(bytes, messages) one worker moves in a ring allreduce of
        ``nbytes`` — ``2 (k-1)`` chunk messages of ``nbytes / k`` each."""
        if self.k == 1:
            return 0.0, 0
        steps = 2 * (self.k - 1)
        return steps * nbytes / self.k, steps

    def reduce_slabs(self, slabs: list[np.ndarray], out: np.ndarray,
                     rank: int | None = None) -> None:
        """Rank ``rank``'s share of a ring-style reduce-scatter.

        Rank ``r`` owns the ``r``-th contiguous chunk of the flattened
        output and sums that chunk across every rank's slab *in rank
        order* — a fixed reduction order, so the result is bitwise
        deterministic regardless of scheduling, and the same whether the
        k chunks are reduced by k processes or one after another.  With
        ``out`` in shared memory the all-gather half of the ring is
        free; the caller supplies any barriers around the reduction.
        ``rank`` defaults to the bound :attr:`rank`.
        """
        if rank is None:
            rank = self.rank
        if rank is None:
            raise RuntimeError("reduce_slabs needs a bound rank")
        if len(slabs) != self.k:
            raise ValueError(f"expected {self.k} slabs, got {len(slabs)}")
        flat_out = out.reshape(-1)
        size = flat_out.size
        bounds = np.linspace(0, size, self.k + 1).astype(np.int64)
        lo, hi = int(bounds[rank]), int(bounds[rank + 1])
        if lo == hi:
            return
        acc = np.array(slabs[0].reshape(-1)[lo:hi], dtype=flat_out.dtype)
        for r in range(1, self.k):
            acc += slabs[r].reshape(-1)[lo:hi]
        flat_out[lo:hi] = acc

    # ------------------------------------------------------------------
    # synchronization — no-ops for accounting-only backends
    # ------------------------------------------------------------------
    def barrier(self) -> float:
        """Synchronize all workers; returns seconds spent waiting."""
        return 0.0

    def close(self) -> None:
        """Release backend resources (no-op for in-process backends)."""


class SimulatedComm(Comm):
    """The deterministic single-process harness: pure accounting.

    All workers run in one process; :meth:`Comm.worker_step_time` *is*
    the communication time, so results are exactly reproducible.
    """


class ProcessComm(Comm):
    """Real synchronization for ``k`` worker OS processes.

    Created in the parent before the workers are spawned; the barrier
    and its state travel to each worker through process inheritance (or
    pickling under the ``spawn`` start method).  Each worker calls
    :meth:`bind` with its rank once it is running.

    Parameters
    ----------
    k:
        Number of worker processes (the parent is *not* a barrier party;
        it observes progress through result queues so a dead worker is
        detected by liveness polling, not by a broken barrier).
    config:
        Cost model used for the byte/message *accounting* columns; the
        measured times are wall clocks.
    ctx:
        ``multiprocessing`` context; defaults to ``fork`` where
        available (zero-copy inheritance), else the platform default.
    timeout:
        Seconds a worker waits at a barrier before giving up; a broken
        or timed-out barrier means a peer died and the epoch is
        abandoned (the parent detects the death independently).
    """

    def __init__(self, k: int, config: CommConfig | None = None, *,
                 ctx: mp.context.BaseContext | None = None,
                 timeout: float = 120.0):
        super().__init__(k, config)
        if ctx is None:
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-posix platforms
                ctx = mp.get_context()
        self.ctx = ctx
        self.timeout = float(timeout)
        self._barrier = ctx.Barrier(k)
        #: per-process liveness hook (see :meth:`bind`); not pickled —
        #: each worker installs its own after spawn
        self._heartbeat = None

    def bind(self, rank: int, heartbeat=None) -> None:
        """Attach this (per-process) copy to a worker rank.

        ``heartbeat``, when given, is called ``heartbeat("enter")`` as
        the worker parks at a barrier and ``heartbeat("exit")`` when the
        barrier releases — the live-telemetry plane uses it to mark the
        worker as *waiting* (a frozen heartbeat at a barrier means a
        peer stalled, not this rank) and to prove progress on release.
        """
        if not (0 <= rank < self.k):
            raise ValueError("rank out of range")
        self.rank = rank
        self._heartbeat = heartbeat

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_heartbeat"] = None  # process-local, never travels
        return state

    def barrier(self) -> float:
        """Wait for all ``k`` workers; returns measured seconds waited.

        Raises :class:`threading.BrokenBarrierError` when a peer died or
        the timeout elapsed — callers abandon the epoch and let the
        parent heal the pool.
        """
        if self._heartbeat is not None:
            self._heartbeat("enter")
        start = time.perf_counter()
        self._barrier.wait(self.timeout)
        waited = time.perf_counter() - start
        if self._heartbeat is not None:
            self._heartbeat("exit")
        return waited

    def reset(self) -> None:
        """Replace the barrier before respawning workers.

        A worker killed *inside* ``wait()`` leaves its party registered
        forever, so the old barrier can stay in the draining state no
        matter how it is reset — a fresh one is the only safe recovery.
        Only call between pools: workers receive the barrier at spawn.
        """
        self._barrier = self.ctx.Barrier(self.k)

    def close(self) -> None:
        """Abort the barrier so any straggler wait fails fast."""
        try:
            self._barrier.abort()
        except Exception:  # pragma: no cover - teardown best effort
            pass
