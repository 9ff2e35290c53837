"""The staged streaming minibatch pipeline: sample → gather.

Each epoch is split into per-batch descriptors up front — the seed
permutation *and* one RNG seed per batch are pre-drawn from the epoch
seed (``SeedSequence([seed, epoch])``) — so what a batch samples is a
pure function of ``(seed, epoch, batch index)``.  That is what makes
the pipeline reproducible: prefetch depth, worker-thread count and
scheduling jitter cannot change the stream, only *when* each batch is
produced.

Production runs either inline (``prefetch_depth == 0``; the synchronous
baseline) or on background worker threads over a bounded in-flight
budget: a worker must hold one of ``prefetch_depth`` permits before it
claims the next batch index, and the permit is returned only when the
training loop consumes that batch.  Claims are handed out in index
order and batches are emitted in index order (training order equals
plan order — optimizer steps are sequential and deterministic), so the
permit bound is also a deadlock-freedom argument: the consumer always
waits on the smallest outstanding index, whose claimant holds a permit
and never blocks while producing.

Every stage reports into :mod:`repro.obs`: per-batch
``loader.sample`` / ``loader.gather`` spans, ``loader.queue_depth``
(ready-but-unconsumed batches) and ``loader.batches`` /
``loader.bytes_gathered`` / ``loader.wire_bytes`` counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..core.step import CompactBlocks, sample_blocks
from ..tensor.tensor import Tensor
from .source import DataSource

__all__ = ["BatchPlan", "SampledBatch", "StreamingLoader", "plan_epoch"]


@dataclass(frozen=True)
class BatchPlan:
    """What batch ``index`` of an epoch will sample — fixed up front."""

    index: int
    epoch: int
    seeds: np.ndarray       # global vertex ids, draw order
    rng_seed: int           # per-batch sampling seed, pre-drawn


def plan_epoch(pool: np.ndarray, batch_size: int, *, seed: int,
               epoch: int) -> list[BatchPlan]:
    """Pre-draw the epoch's batch plans from ``(seed, epoch)`` alone.

    The pool permutation and every batch's sampling seed come from one
    ``SeedSequence([seed, epoch])`` stream, so the plan is identical no
    matter how many loader workers later execute it.
    """
    pool = np.asarray(pool, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
    order = rng.permutation(pool)
    num_batches = -(-order.size // batch_size) if order.size else 0
    batch_seeds = rng.integers(0, np.iinfo(np.int64).max, size=num_batches)
    return [
        BatchPlan(
            index=i,
            epoch=epoch,
            seeds=order[i * batch_size : (i + 1) * batch_size],
            rng_seed=int(batch_seeds[i]),
        )
        for i in range(num_batches)
    ]


@dataclass
class SampledBatch:
    """One fully staged batch, ready for a train step."""

    index: int
    epoch: int
    seeds: np.ndarray
    compact: CompactBlocks
    feats: Tensor
    labels: np.ndarray | None
    sample_seconds: float = 0.0
    gather_seconds: float = 0.0

    @property
    def seed_rows(self) -> np.ndarray:
        return self.compact.seed_rows


@dataclass
class _EpochRun:
    """Shared state of one threaded epoch."""

    plans: list[BatchPlan]
    next_index: int = 0
    results: dict = field(default_factory=dict)
    stop: threading.Event = field(default_factory=threading.Event)


class StreamingLoader:
    """Background sample/gather over a bounded prefetch window.

    Parameters
    ----------
    source:
        The :class:`~repro.loader.DataSource` features and labels are
        gathered from, taken as given: its codec decides what a gather
        decodes.  Gather traffic is reported both as compute bytes
        (``loader.bytes_gathered``) and as the source's stored wire
        bytes (``loader.wire_bytes``).
    fanouts:
        Per-layer neighbor budgets, bottom layer first (entries may be
        ``None`` for exact neighborhoods).
    batch_size:
        Seed vertices per batch.
    prefetch_depth:
        Max batches in flight (claimed but not yet consumed by the
        training loop).  ``0`` disables the worker threads entirely —
        batches are produced inline, the synchronous baseline.
    num_workers:
        Worker threads executing the staged production (capped by
        ``prefetch_depth``; ignored when ``prefetch_depth == 0``).
    """

    def __init__(self, source: DataSource, fanouts: list,
                 batch_size: int = 256, prefetch_depth: int = 2,
                 num_workers: int = 2):
        self.source = source
        self.fanouts = list(fanouts)
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.prefetch_depth = int(prefetch_depth)
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.num_workers = max(1, int(num_workers))

    # ------------------------------------------------------------------
    # Staged production (runs on a worker thread or inline)
    # ------------------------------------------------------------------
    def _produce(self, hdg: HDG, plan: BatchPlan) -> SampledBatch:
        rng = np.random.default_rng(plan.rng_seed)
        t0 = time.perf_counter()
        compact = sample_blocks(hdg, plan.seeds, self.fanouts, rng)
        sample_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        rows = self.source.gather_features(compact.input_vertices)
        labels = self.source.gather_labels(plan.seeds)
        gather_s = time.perf_counter() - t1

        reg = obs.get_registry()
        attrs = {"epoch": plan.epoch, "batch": plan.index}
        reg.record_span("loader.sample", sample_s, simulated=False, **attrs)
        reg.record_span("loader.gather", gather_s, simulated=False, **attrs)
        obs.counter("loader.batches").add(1)
        obs.counter("loader.bytes_gathered").add(int(rows.nbytes))
        # Wire bytes: what the storage tier moved for this gather, in
        # the source's stored format (quantized codes + sidecars for a
        # quantized source); equals bytes_gathered for an exact store.
        obs.counter("loader.wire_bytes").add(
            self.source.wire_bytes_per_row * int(compact.input_vertices.size))

        return SampledBatch(
            index=plan.index, epoch=plan.epoch, seeds=plan.seeds,
            compact=compact, feats=Tensor(rows), labels=labels,
            sample_seconds=sample_s, gather_seconds=gather_s,
        )

    # ------------------------------------------------------------------
    # Epoch iteration
    # ------------------------------------------------------------------
    def epoch_batches(self, hdg: HDG, pool: np.ndarray, *, epoch: int,
                      seed: int):
        """Yield the epoch's batches in plan order.

        With ``prefetch_depth == 0`` this is a plain generator; otherwise
        worker threads run the staged production ahead of the consumer,
        at most ``prefetch_depth`` batches deep.
        """
        plans = plan_epoch(pool, self.batch_size, seed=seed, epoch=epoch)
        if not plans:
            return iter(())
        if self.prefetch_depth == 0:
            return (self._produce(hdg, plan) for plan in plans)
        return self._threaded_epoch(hdg, plans)

    def _threaded_epoch(self, hdg: HDG, plans: list[BatchPlan]):
        run = _EpochRun(plans=plans)
        claim_lock = threading.Lock()
        cond = threading.Condition()
        permits = threading.BoundedSemaphore(self.prefetch_depth)
        depth_gauge = obs.gauge("loader.queue_depth")

        def worker() -> None:
            while not run.stop.is_set():
                # Permit first, then claim: every claimed-but-unconsumed
                # batch holds a permit, and claims go out in index order
                # — the consumer's next batch is always being produced.
                if not permits.acquire(timeout=0.05):
                    continue
                with claim_lock:
                    index = run.next_index
                    if index >= len(run.plans):
                        permits.release()
                        return
                    run.next_index += 1
                try:
                    result = self._produce(hdg, run.plans[index])
                except BaseException as exc:  # surfaced on the consumer
                    result = exc
                with cond:
                    run.results[index] = result
                    depth_gauge.set(len(run.results))
                    cond.notify_all()

        threads = [
            threading.Thread(target=worker, name=f"loader-{i}", daemon=True)
            for i in range(min(self.num_workers, self.prefetch_depth))
        ]

        def iterate():
            # Threads start on the first ``next()``, inside the ``try``
            # whose ``finally`` joins them: a generator that is never
            # started never runs its ``finally``, so it must not own
            # live threads either.
            try:
                for t in threads:
                    t.start()
                for index in range(len(plans)):
                    with cond:
                        while index not in run.results:
                            if not any(t.is_alive() for t in threads):
                                raise RuntimeError(
                                    "loader workers exited without producing "
                                    f"batch {index}"
                                )
                            cond.wait(timeout=0.1)
                        result = run.results.pop(index)
                        depth_gauge.set(len(run.results))
                    permits.release()
                    if isinstance(result, BaseException):
                        raise result
                    yield result
            finally:
                run.stop.set()
                for t in threads:
                    # a failed start() leaves the later threads unstarted
                    if t.ident is not None:
                        t.join()
                depth_gauge.set(0)

        return iterate()
