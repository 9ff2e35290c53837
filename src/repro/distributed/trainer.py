"""Distributed FlexGraph training over a simulated shared-nothing cluster.

The trainer runs the *real* program of every rank
(:meth:`~repro.distributed.rank.Rank.program`: aggregation + update over
the rank's block in its owned ∪ halo rows, a rank-local loss share, a
cut-tape backward, rank-ordered gradient reductions) in one process,
stepping the k programs round-robin from one sync point to the next,
and combines their measured times with modeled network time from
:mod:`repro.distributed.comm`.  One epoch's simulated wall time is::

    selection time / k
    + sum over layers of max over ranks of layer_time(rank)
    + sum over layers of max over ranks of backward(rank)
    + parameter allreduce time

where ``layer_time`` is ``max(compute, comm) + combine`` with pipeline
processing (overlap of partial aggregation and communication) or
``compute + comm`` without it, and every measured rank time is divided
by that worker's modeled speed.  This reproduces the quantities Figures
13 and 15b/c measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import ModelHDGs, Partition, epoch_counts, epoch_mark
from ..tensor.nn import as_param_dtype
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .comm import CommConfig, CommPlan, dependency_stats, plan_layer_comm
from .fault_tolerance import WorkerFailure
from .rank import (
    Buffers,
    Rank,
    apply_reduced_grad,
    attach_hdg,
    attach_targets,
    feature_matrix,
)

__all__ = ["DistributedEpochStats", "DistributedTrainer"]

#: combining received partial aggregates costs a small multiple of the
#: transfer itself (one streaming add over the received values).
_COMBINE_FRACTION = 0.1


@dataclass
class DistributedEpochStats:
    """Simulated timing of one distributed epoch."""

    epoch: int
    loss: float
    simulated_seconds: float
    compute_seconds: np.ndarray      # per worker, summed over layers
    comm_seconds: np.ndarray         # per worker, summed over layers
    selection_seconds: float
    total_bytes: float
    total_messages: int
    #: the mode the layer plans actually used ("pipelined" / "batched" /
    #: "naive", or "mixed" when layers differed) — a non-commutative
    #: aggregator downgrades a requested pipelined plan to batched.
    comm_mode: str


def _lockstep(programs):
    """Step rank programs round-robin: run each to its next sync point,
    then hand the k sync points to the trainer; resuming resumes them."""
    while True:
        syncs = [next(program, None) for program in programs]
        if syncs[0] is None:
            return
        yield syncs


def _layer_times(compute: np.ndarray, plan: CommPlan) -> np.ndarray:
    """Per-rank simulated seconds of one layer given its measured work."""
    if plan.overlaps_compute:
        combine = _COMBINE_FRACTION * plan.per_worker_seconds
        return np.maximum(compute, plan.per_worker_seconds) + combine
    return compute + plan.per_worker_seconds


class DistributedTrainer:
    """Train a NAU model across ``k`` simulated shared-nothing workers.

    Parameters
    ----------
    model:
        The NAU program (same object the single-machine engine runs).
    graph, labels, feats:
        The training task, held globally; per-worker slices are views.
    partition_labels:
        Vertex -> worker assignment (from Hash/PuLP/ADB).
    strategy:
        Aggregation execution strategy per worker.
    pipeline:
        Enable partial aggregation + comm/compute overlap (Figure 15b/c's
        "w/ PP"); ``False`` degrades to batched-but-sequential sync.
    comm_config:
        Network cost model.
    """

    def __init__(
        self,
        model: NAUModel,
        graph,
        partition_labels: np.ndarray,
        strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
        pipeline: bool = True,
        comm_config: CommConfig | None = None,
        seed: int = 0,
        worker_speeds: np.ndarray | None = None,
    ):
        self.model = model
        self.graph = graph
        self.partition = Partition(partition_labels, graph.num_vertices)
        self.labels_part = self.partition.labels
        self.k = self.partition.k
        self.strategy = ExecutionStrategy.parse(strategy)
        self.pipeline = pipeline
        self.comm_config = comm_config or CommConfig()
        # Relative compute speed per worker (1.0 = this machine); every
        # measured rank time is divided by its speed, modeling
        # heterogeneous clusters.
        if worker_speeds is None:
            self.worker_speeds = np.ones(self.k)
        else:
            self.worker_speeds = np.asarray(worker_speeds, dtype=np.float64)
            if self.worker_speeds.shape != (self.k,):
                raise ValueError(f"worker_speeds must have shape ({self.k},)")
            if (self.worker_speeds <= 0).any():
                raise ValueError("worker speeds must be positive")
        self.hdgs = ModelHDGs(model, graph, np.random.default_rng(seed),
                              span="dist.neighbor_selection")
        self._dep_stats = None
        self._fail_next: int | None = None
        self._bufs: Buffers | None = None
        #: the ``labels`` / ``mask`` arrays the ranks hold rows of
        self._labels: np.ndarray | None = None
        self._mask: np.ndarray | None = None
        # Rank root sets follow the global HDG root order (vertex id).
        self.ranks = [Rank(w, part) for w, part in enumerate(self.partition.parts)]

    # ------------------------------------------------------------------
    # Failure injection (the FaultTolerantTrainer contract)
    # ------------------------------------------------------------------
    def inject_failure(self, worker_id: int) -> None:
        """Arrange for ``worker_id`` to fail at the start of the next
        epoch — before any RNG draw, so a replay after recovery sees the
        random stream a failure-free run would."""
        if not (0 <= worker_id < self.k):
            raise ValueError("worker id out of range")
        self._fail_next = worker_id

    def recover(self, worker_id: int) -> None:
        """Rebuild the failed rank's state: the blocks and receive lists
        are re-cut from the global HDGs (shared-nothing state is derived,
        not primary; the lists tie every rank to its peers)."""
        if self.hdgs.model_hdg is not None:
            attach_hdg(self.ranks, self.hdgs.model_hdg, self.labels_part)

    # ------------------------------------------------------------------
    def _sync_hdg(self, epoch: int) -> None:
        """Re-cut the rank blocks when NeighborSelection rebuilt the HDG."""
        hdg, rebuilt = self.hdgs.model_level(epoch)
        if rebuilt:
            attach_hdg(self.ranks, hdg, self.labels_part)
            self._dep_stats = dependency_stats(hdg, self.labels_part, self.k)

    def _forward(self, X: np.ndarray, epoch: int):
        """Run the rank programs through the last layer's forward,
        modeling each layer's communication at its ``layer_sync``.

        Returns the suspended lockstep and the totals: simulated forward
        ``seconds`` (and ``aggregation`` seconds, the same model over
        the Aggregation stage alone — Figures 15a-c), modeled traffic,
        and per-rank measured ``compute`` / modeled ``comm`` seconds.
        """
        if self._bufs is None:
            self._bufs = Buffers.allocate(self.model, self.graph.num_vertices,
                                          self.k, np.zeros)
        steps = _lockstep([
            rank.program(self.model, self.strategy, X[rank.inputs],
                         self._bufs, epoch, scale=1.0 / speed)
            for rank, speed in zip(self.ranks, self.worker_speeds)
        ])
        mode = "pipelined" if self.pipeline else "batched"
        totals = {"seconds": 0.0, "aggregation": 0.0, "bytes": 0.0,
                  "messages": 0, "modes": set(),
                  "compute": np.zeros(self.k), "comm": np.zeros(self.k)}
        for syncs in steps:
            l = syncs[0].layer
            plan = plan_layer_comm(
                self._dep_stats, syncs[0].row_bytes, self.comm_config, mode,
                self.model.layers[l].commutative,
            )
            totals["modes"].add(plan.mode)
            totals["bytes"] += plan.total_bytes
            totals["messages"] += plan.total_messages
            for w in range(self.k):
                obs.record_span("dist.comm", float(plan.per_worker_seconds[w]),
                                worker=w, layer=l, epoch=epoch, mode=plan.mode)
                if plan.overlaps_compute:
                    obs.record_span(
                        "dist.combine",
                        _COMBINE_FRACTION * float(plan.per_worker_seconds[w]),
                        worker=w, layer=l, epoch=epoch)
            compute = np.array([r.compute_seconds[l] for r in self.ranks])
            aggregation = np.array([r.aggregation_seconds[l] for r in self.ranks])
            totals["seconds"] += float(_layer_times(compute, plan).max())
            totals["aggregation"] += float(_layer_times(aggregation, plan).max())
            totals["compute"] += compute
            totals["comm"] += plan.per_worker_seconds
            if l + 1 == len(self.model.layers):
                break
        return steps, totals

    def _backward(self, steps) -> None:
        """Run the rank programs to their end, running every rank's
        reduction once all k reached the sync."""
        for syncs in steps:
            for sync in syncs:
                sync.reduce()

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> DistributedEpochStats:
        """One data-parallel full-batch epoch with simulated-time accounting."""
        if self._fail_next is not None:
            worker_id, self._fail_next = self._fail_next, None
            raise WorkerFailure(worker_id, epoch)
        X = as_param_dtype(self.model,
                           feature_matrix(feats, self.graph.num_vertices))
        if labels is not self._labels or mask is not self._mask:
            attach_targets(self.ranks, self.graph.num_vertices, labels, mask)
            self._labels, self._mask = labels, mask
        self._sync_hdg(epoch)
        mark = epoch_mark()
        steps, totals = self._forward(X, epoch)
        self._backward(steps)
        apply_reduced_grad(self.model, optimizer, self._bufs.pbuf)
        loss = sum(rank.loss for rank in self.ranks)
        # Selection is embarrassingly parallel across partitions (§5:
        # "FlexGraph constructs a subgraph of HDGs in parallel").
        selection_sim = self.hdgs.build_seconds / self.k
        # Each backward layer ends in a gradient reduction every rank
        # waits for: the slowest rank sets the pace, layer by layer.
        backward = np.array([r.backward_seconds for r in self.ranks])
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        allreduce = self.comm_config.allreduce_time(param_bytes, self.k)
        obs.record_span("dist.allreduce", allreduce, epoch=epoch,
                        bytes=param_bytes)
        simulated = (selection_sim + totals["seconds"]
                     + float(backward.max(axis=0).sum()) + allreduce)
        total_bytes, total_messages = totals["bytes"], totals["messages"]

        # Report the mode the plans actually used: a non-commutative
        # aggregator silently downgrades pipelined -> batched (§5), and
        # models can mix commutative and non-commutative layers.
        modes = totals["modes"]
        effective_mode = next(iter(modes)) if len(modes) == 1 else "mixed"
        per_worker_compute = totals["compute"]
        mean_compute = per_worker_compute.mean()
        balance = (
            float(per_worker_compute.max() / mean_compute)
            if mean_compute > 0 else 1.0
        )
        obs.event(
            "epoch",
            epoch=epoch,
            loss=loss,
            simulated_seconds=simulated,
            bytes=total_bytes,
            messages=total_messages,
            balance_factor=balance,
            vertices_per_sec=(
                self.graph.num_vertices / simulated if simulated > 0 else 0.0
            ),
            comm_mode=effective_mode,
            **epoch_counts(mark),
        )

        return DistributedEpochStats(
            epoch=epoch,
            loss=loss,
            simulated_seconds=simulated,
            compute_seconds=per_worker_compute,
            comm_seconds=totals["comm"],
            selection_seconds=selection_sim,
            total_bytes=total_bytes,
            total_messages=total_messages,
            comm_mode=effective_mode,
        )

    def aggregation_epoch_time(self, feats: Tensor, epoch: int = 0) -> float:
        """Simulated seconds of the Aggregation stage only (Figures 15a-c
        measure Aggregation rather than end-to-end epochs): the ranks'
        forward, timed by their aggregation spans."""
        X = as_param_dtype(self.model,
                           feature_matrix(feats, self.graph.num_vertices))
        self._sync_hdg(epoch)
        steps, totals = self._forward(X, epoch)
        steps.close()
        return totals["aggregation"]
