"""Distributed FlexGraph training over a simulated shared-nothing cluster.

The trainer executes the *real* computation of every worker (sliced
per-partition HDG aggregation + update, measured with wall clocks) in one
process, and combines it with modeled network time from
:mod:`repro.distributed.commplan`.  One epoch's simulated wall time is::

    sum over layers of max over workers of layer_time(worker)
    + backward time / k          (data-parallel backward)
    + parameter allreduce time

where ``layer_time`` is ``max(compute, comm) + combine`` with pipeline
processing (overlap of partial aggregation and communication) or
``compute + comm`` without it.  This reproduces the quantities Figures 13
and 15b/c measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import ModelHDGs, Partition, node_loss, train_step
from ..tensor.optim import Optimizer
from ..tensor.plans import get_plan_cache
from ..tensor.tensor import Tensor
from .comm import CommConfig, SimulatedComm
from .fault_tolerance import WorkerFailure
from .commplan import dependency_stats, plan_layer_comm
from .worker import Worker

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
        # Relative compute speed per worker (1.0 = this machine); the
        # simulated layer time divides each worker's measured compute by
        # its speed, modeling heterogeneous clusters.
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
        # Worker root sets follow the global HDG root order (vertex id).
        self.workers = [Worker(w, part)
                        for w, part in enumerate(self.partition.parts)]

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
        """Rebuild the failed worker's state: its sub-HDG is re-sliced
        from the global HDGs (shared-nothing state is derived, not
        primary)."""
        if self.hdgs.model_hdg is not None:
            self.workers[worker_id].attach_hdg(self.hdgs.model_hdg)

    # ------------------------------------------------------------------
    def _sync_hdg(self, epoch: int) -> None:
        """Re-slice the workers when NeighborSelection rebuilt the HDG."""
        hdg, rebuilt = self.hdgs.model_level(epoch)
        if rebuilt:
            for worker in self.workers:
                worker.attach_hdg(hdg)
            self._dep_stats = dependency_stats(hdg, self.labels_part, self.k)

    def _forward(self, feats: Tensor, epoch: int,
                 time_update: bool = True) -> tuple[Tensor, dict]:
        """The partitioned forward: every worker's sliced aggregation +
        update per layer (measured), the layer's modeled communication,
        and reassembly into vertex order.

        ``time_update=False`` keeps Update outside the ``dist.compute``
        span, isolating the Aggregation stage (Figures 15a-c).  Returns
        the final features and the simulated-time/traffic totals (per
        worker: measured ``compute`` and modeled ``comm`` seconds).
        """
        mode = "pipelined" if self.pipeline else "batched"
        totals = {"seconds": 0.0, "bytes": 0.0, "messages": 0, "modes": set(),
                  "compute": np.zeros(self.k), "comm": np.zeros(self.k)}
        h = feats
        for layer_index, layer in enumerate(self.model.layers):
            feat_bytes = int(h.shape[1]) * h.data.dtype.itemsize
            plan = plan_layer_comm(
                self._dep_stats, feat_bytes, self.comm_config, mode,
                layer.commutative,
            )
            totals["modes"].add(plan.mode)
            totals["bytes"] += plan.total_bytes
            totals["messages"] += plan.total_messages

            outputs = []
            compute = np.zeros(self.k)
            for w, worker in enumerate(self.workers):
                # scale= divides measured time by the worker's modeled
                # speed, so the recorded span carries the effective
                # duration straggler analysis must see.
                with obs.span("dist.compute",
                              scale=1.0 / self.worker_speeds[w], worker=w,
                              layer=layer_index, epoch=epoch) as s_cmp:
                    nbr = layer.aggregation(h, worker.sub_hdg, self.strategy)
                    if time_update:
                        h_w = layer.update(h[worker.root_orders], nbr)
                if not time_update:
                    h_w = layer.update(h[worker.root_orders], nbr)
                compute[w] = s_cmp.duration
                outputs.append(h_w)

            combine = (
                _COMBINE_FRACTION * plan.per_worker_seconds
                if plan.overlaps_compute
                else np.zeros(self.k)
            )
            for w in range(self.k):
                obs.record_span("dist.comm", float(plan.per_worker_seconds[w]),
                                worker=w, layer=layer_index, epoch=epoch,
                                mode=plan.mode)
                if plan.overlaps_compute:
                    obs.record_span("dist.combine", float(combine[w]),
                                    worker=w, layer=layer_index, epoch=epoch)
            if plan.overlaps_compute:
                layer_times = np.maximum(compute, plan.per_worker_seconds) + combine
            else:
                layer_times = compute + plan.per_worker_seconds
            totals["seconds"] += float(layer_times.max())
            totals["compute"] += compute
            totals["comm"] += plan.per_worker_seconds
            h = self.partition.reassemble(outputs)
        return h, totals

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
        self.model.train()
        self._sync_hdg(epoch)
        work_mark = obs.work_snapshot()
        plan_cache = get_plan_cache()
        plan_mark = (plan_cache.hits, plan_cache.misses)
        h, totals = self._forward(feats, epoch)
        # Selection is embarrassingly parallel across partitions (§5:
        # "FlexGraph constructs a subgraph of HDGs in parallel").
        selection_sim = self.hdgs.build_seconds / self.k
        simulated = selection_sim + totals["seconds"]
        total_bytes, total_messages = totals["bytes"], totals["messages"]

        loss = node_loss(h, labels, mask)
        with obs.span("dist.backward", epoch=epoch) as s_back:
            train_step(loss, optimizer)
        simulated += s_back.duration / self.k
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        allreduce = SimulatedComm(self.k, self.comm_config).allreduce_time(param_bytes)
        obs.record_span("dist.allreduce", allreduce, epoch=epoch,
                        bytes=param_bytes)
        simulated += allreduce

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
        work = obs.work_since(work_mark)
        obs.event(
            "epoch",
            epoch=epoch,
            loss=loss.item(),
            simulated_seconds=simulated,
            bytes=total_bytes,
            messages=total_messages,
            balance_factor=balance,
            vertices_per_sec=(
                self.graph.num_vertices / simulated if simulated > 0 else 0.0
            ),
            comm_mode=effective_mode,
            flops=work["flops"],
            work_bytes=work["bytes_read"] + work["bytes_written"],
            plan_hits=plan_cache.hits - plan_mark[0],
            plan_misses=plan_cache.misses - plan_mark[1],
        )

        return DistributedEpochStats(
            epoch=epoch,
            loss=loss.item(),
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
        measure Aggregation rather than end-to-end epochs)."""
        self._sync_hdg(epoch)
        return self._forward(feats, epoch, time_update=False)[1]["seconds"]
