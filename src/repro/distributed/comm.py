"""The network layer: the alpha-beta model, §5's communication plans,
rank-ordered slab reduction and the worker-process barrier.

The paper's testbed is a 16-machine cluster with 3.25 GB/s NICs; in its
place this module *models* network time with the standard alpha-beta
model: a message of ``b`` bytes costs ``alpha + b / beta`` seconds, and
each worker's per-layer communication time is the sum over the messages
it sends plus those it receives (workers send and receive concurrently
with respect to each other, but serially with respect to their own
messages — a conservative, standard assumption).  Bandwidth defaults
are scaled down consistently with the dataset scale so compute and
communication remain comparable, matching the compute/comm ratios the
paper's optimizations (batching, overlap) act on.

* :class:`CommConfig` — the model's parameters and its arithmetic
  (:meth:`~CommConfig.message_time`, :meth:`~CommConfig.allreduce_time`).
* :func:`dependency_stats` / :func:`plan_layer_comm` — what one layer
  must move between partitions, and what that costs each worker under a
  naive, batched or pipelined plan:

  - **naive** — every remote leaf feature is fetched individually, then
    aggregation starts (the dataflow-style baseline Euler uses: "starts
    the Aggregate operation after all required features are
    synchronized");
  - **batched** — features bound for the same worker travel in one
    assembled message (always available, even for non-commutative
    aggregators);
  - **pipelined** — additionally applies *partial aggregation*: the
    sender pre-reduces, per (root, remote partition), everything it owns
    into a single ``dim``-sized message, and the receiver overlaps its
    local partial aggregation with the transfer.  Valid only when the
    bottom-level aggregation function is commutative.
* :func:`allreduce_traffic` — the bytes and messages one rank moves in a
  ring allreduce.
* :func:`reduce_slabs` — one rank's share of a rank-ordered
  reduce-scatter, bitwise the same whichever trainer runs the ranks
  (the reduction the rank program's parameter sync carries).
* :class:`ProcessComm` — the barrier the worker processes of
  :class:`~repro.distributed.runtime.MultiprocessTrainer` meet at.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.hdg import HDG

__all__ = [
    "CommConfig",
    "DependencyStats",
    "dependency_stats",
    "CommPlan",
    "plan_layer_comm",
    "allreduce_traffic",
    "reduce_slabs",
    "ProcessComm",
    "BYTES_COUNTER",
    "MESSAGES_COUNTER",
]

#: obs counters fed by every plan and every multiprocess epoch, so traces
#: carry global traffic totals without the caller threading them through.
BYTES_COUNTER = "comm.bytes"
MESSAGES_COUNTER = "comm.messages"


@dataclass(frozen=True)
class CommConfig:
    """Alpha-beta network model parameters."""

    latency: float = 5e-5          # seconds per message
    bandwidth: float = 200e6       # bytes/second (scaled-down 3.25 GB/s NIC)

    def message_time(self, nbytes: float | np.ndarray,
                     messages: int | np.ndarray = 1) -> float | np.ndarray:
        """Seconds to move ``messages`` messages totalling ``nbytes``;
        scalars, or per-worker arrays."""
        return self.latency * messages + nbytes / self.bandwidth

    def allreduce_time(self, nbytes: float, k: int) -> float:
        """Ring-allreduce cost of an ``nbytes`` buffer over ``k``
        workers (parameter sync): ``2 (k-1)`` chunks of ``nbytes / k``."""
        if k == 1:
            return 0.0
        return 2 * (k - 1) * self.message_time(nbytes / k, 1)


def allreduce_traffic(nbytes: float, k: int) -> tuple[float, int]:
    """(bytes, messages) one worker moves in a ring allreduce of
    ``nbytes`` — ``2 (k-1)`` chunk messages of ``nbytes / k`` each."""
    if k == 1:
        return 0.0, 0
    steps = 2 * (k - 1)
    return steps * nbytes / k, steps


def reduce_slabs(slabs: list[np.ndarray], out: np.ndarray, rank: int) -> None:
    """Rank ``rank``'s share of a ring-style reduce-scatter over the
    ``k = len(slabs)`` ranks' slabs.

    Rank ``r`` owns the ``r``-th contiguous chunk of the flattened
    output and sums that chunk across every rank's slab *in rank order*
    — a fixed reduction order, so the result is bitwise deterministic
    regardless of scheduling, and the same whether the k chunks are
    reduced by k processes or one after another.  With ``out`` in shared
    memory the all-gather half of the ring is free; the caller supplies
    any barriers around the reduction.
    """
    flat_out = out.reshape(-1)
    bounds = np.linspace(0, flat_out.size, len(slabs) + 1).astype(np.int64)
    lo, hi = int(bounds[rank]), int(bounds[rank + 1])
    if lo == hi:
        return
    acc = np.array(slabs[0].reshape(-1)[lo:hi], dtype=flat_out.dtype)
    for slab in slabs[1:]:
        acc += slab.reshape(-1)[lo:hi]
    flat_out[lo:hi] = acc


# ----------------------------------------------------------------------
# §5 communication plans
# ----------------------------------------------------------------------
@dataclass
class DependencyStats:
    """Cross-partition dependency counts for one HDG + partition, as
    ``(k, k)`` matrices indexed ``[dst_worker, src_worker]``."""

    k: int
    #: remote bottom-level edges per pair — the per-root feature
    #: collection of the straightforward path ("first collect features of
    #: its 1-hop neighbors at other partitions"); drives naive/batched
    remote_edges_per_pair: np.ndarray
    #: unique (root, remote partition) pairs; drives partial aggregation
    partial_messages_per_pair: np.ndarray


def dependency_stats(hdg: HDG, labels: np.ndarray, k: int) -> DependencyStats:
    """Vectorized cross-partition dependency accounting."""
    labels = np.asarray(labels, dtype=np.int64)
    root_vertex = hdg.roots[hdg.root_of_leaf_edges()]   # global root per edge
    w_root = labels[root_vertex]
    w_leaf = labels[hdg.leaf_vertices]
    remote = w_root != w_leaf
    src_w = w_leaf[remote]
    # Unique (root, src worker) pairs -> partial-aggregation messages.
    partial = np.unique(root_vertex[remote] * k + src_w)
    return DependencyStats(
        k,
        np.bincount(w_root[remote] * k + src_w,
                    minlength=k * k).reshape(k, k),
        np.bincount(labels[partial // k] * k + partial % k,
                    minlength=k * k).reshape(k, k),
    )


@dataclass
class CommPlan:
    """Per-worker modeled communication seconds for one layer."""

    mode: str
    per_worker_seconds: np.ndarray
    total_bytes: float
    total_messages: int
    #: True when comm may overlap the worker's local partial aggregation
    overlaps_compute: bool


def plan_layer_comm(
    stats: DependencyStats,
    feat_bytes: int,
    config: CommConfig,
    mode: str = "pipelined",
    commutative: bool = True,
) -> CommPlan:
    """Model one layer's communication under a synchronization plan.

    Parameters
    ----------
    stats:
        Output of :func:`dependency_stats`.
    feat_bytes:
        Bytes of one vertex feature row at this layer (dim * 8).
    mode:
        ``naive`` | ``batched`` | ``pipelined``.
    commutative:
        Whether the bottom-level aggregator admits partial aggregation;
        a pipelined plan falls back to batching when it does not (§5).
    """
    if mode == "pipelined" and not commutative:
        mode_effective = "batched"
    else:
        mode_effective = mode
    if mode_effective not in ("naive", "batched", "pipelined"):
        raise ValueError(f"unknown comm mode {mode!r}")
    # Pipelined applies partial aggregation: one dim-sized value per
    # (root, remote partition).  Naive and batched ship the per-root
    # remote leaf features of §5's straightforward collection.
    overlaps = mode_effective == "pipelined"
    counts = np.array(stats.partial_messages_per_pair if overlaps
                      else stats.remote_edges_per_pair, dtype=np.int64)
    np.fill_diagonal(counts, 0)  # local delivery is free
    # Naive sends one message per remote leaf feature *per root*; the
    # others assemble everything bound for one (src, dst) pair into one.
    messages = counts if mode_effective == "naive" else (counts > 0).astype(np.int64)
    nbytes = counts * feat_bytes
    # counts are [dst, src]: a worker pays for its column (what it
    # sends) plus its row (what it receives).
    per_worker = config.message_time(nbytes.sum(axis=0) + nbytes.sum(axis=1),
                                     messages.sum(axis=0) + messages.sum(axis=1))
    total_bytes = float(nbytes.sum())
    total_messages = int(messages.sum())
    obs.counter(BYTES_COUNTER).add(total_bytes)
    obs.counter(MESSAGES_COUNTER).add(total_messages)
    obs.event(
        "comm.plan",
        mode=mode_effective,
        requested_mode=mode,
        bytes=total_bytes,
        messages=total_messages,
        overlaps_compute=overlaps,
    )
    return CommPlan(
        mode=mode_effective,
        per_worker_seconds=per_worker,
        total_bytes=total_bytes,
        total_messages=total_messages,
        overlaps_compute=overlaps,
    )


# ----------------------------------------------------------------------
# the process barrier
# ----------------------------------------------------------------------
class ProcessComm:
    """The barrier ``k`` worker OS processes meet at.

    Created in the parent before the workers are spawned; the barrier
    travels to each worker through process inheritance (or pickling
    under the ``spawn`` start method).

    Parameters
    ----------
    k:
        Number of worker processes (the parent is *not* a barrier party;
        it observes progress through result queues so a dead worker is
        detected by liveness polling, not by a broken barrier).
    ctx:
        ``multiprocessing`` context; defaults to ``fork`` where
        available (zero-copy inheritance), else the platform default.
    timeout:
        Seconds a worker waits at a barrier before giving up; a broken
        or timed-out barrier means a peer died and the epoch is
        abandoned (the parent detects the death independently).
    """

    def __init__(self, k: int, *, ctx: mp.context.BaseContext | None = None,
                 timeout: float = 120.0):
        if k <= 0:
            raise ValueError("need at least one worker")
        if ctx is None:
            try:
                ctx = mp.get_context("fork")
            except ValueError:  # pragma: no cover - non-posix platforms
                ctx = mp.get_context()
        self.k = k
        self.ctx = ctx
        self.timeout = float(timeout)
        self._barrier = ctx.Barrier(k)

    def barrier(self) -> float:
        """Wait for all ``k`` workers; returns measured seconds waited.

        Entering is a transition into the ``barrier`` phase, so the stall
        detector and a post-mortem see a parked rank as a victim, not as
        frozen mid-forward.  Leaving needs no record of its own: the
        ``dist.comm`` span or phase transition that follows is the
        progress beat.

        Raises :class:`threading.BrokenBarrierError` when a peer died or
        the timeout elapsed — callers abandon the epoch and let the
        parent heal the pool.
        """
        obs.phase("barrier")
        start = time.perf_counter()
        self._barrier.wait(self.timeout)
        return time.perf_counter() - start

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
