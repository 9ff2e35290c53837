"""Distributed sampled mini-batch training — synchronous data-parallel
rounds over the simulated cluster.

Combines the two extensions the paper leaves on the table: fan-out
sampling (``repro.core.step``) and the shared-nothing cluster model
(§5).  Each round, every worker draws a seed batch from *its own*
partition, builds sampled blocks against the global HDG, computes
locally (measured), fetches remote block features (modeled, batched per
worker pair) and joins a gradient allreduce (modeled).  The math is
exactly synchronous data-parallel SGD: one optimizer step per round on
the gradients of all workers' seeds together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import (
    ModelHDGs,
    Partition,
    node_loss,
    run_local_blocks,
    sample_blocks,
    train_step,
)
from ..graph.graph import Graph
from ..loader.source import as_source
from ..tensor.ops import concat
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .comm import CommConfig, SimulatedComm

__all__ = ["DistributedMiniBatchStats", "DistributedMiniBatchTrainer"]


@dataclass
class DistributedMiniBatchStats:
    """One distributed sampled epoch."""

    epoch: int
    loss: float
    simulated_seconds: float
    num_rounds: int
    total_bytes: float
    total_messages: int


class DistributedMiniBatchTrainer:
    """Synchronous data-parallel sampled training over ``k`` workers.

    Parameters mirror :class:`~repro.core.sampling.MiniBatchTrainer` plus
    a partition assignment; requires flat-HDG models.
    """

    def __init__(
        self,
        model: NAUModel,
        data,
        partition_labels: np.ndarray,
        batch_size: int = 128,
        fanouts: list[int] | None = None,
        strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
        comm_config: CommConfig | None = None,
        seed: int = 0,
    ):
        self.model = model
        # ``data`` is the input graph, or a dataset carrying one — an
        # in-RAM Dataset or an out-of-core OnDiskDataset.  With a
        # dataset, train_epoch can run without feats/labels: each
        # worker's features are gathered per batch from the dataset.
        self._dataset = data if hasattr(data, "graph") else None
        self.graph: Graph = data.graph if self._dataset is not None else data
        self.partition = Partition(partition_labels, self.graph.num_vertices)
        self.labels_part = self.partition.labels
        self.k = self.partition.k
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.fanouts = list(fanouts) if fanouts is not None else [10] * model.num_layers
        if len(self.fanouts) != model.num_layers:
            raise ValueError("need one fanout per layer")
        self.strategy = ExecutionStrategy.parse(strategy)
        self.comm_config = comm_config or CommConfig()
        self.hdgs = ModelHDGs(model, self.graph, np.random.default_rng(seed))

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats: Tensor | None = None,
        labels: np.ndarray | None = None,
        optimizer: Optimizer | None = None,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> DistributedMiniBatchStats:
        """One synchronized pass over every worker's masked vertices.

        Each worker gathers its batch's feature rows — from ``feats``,
        or with ``feats=None`` from the dataset the trainer was
        constructed with (for ondisk data: only the touched memmap
        pages) — and runs the forward in batch-local coordinates.
        """
        if optimizer is None:
            raise ValueError("train_epoch needs an optimizer")
        if feats is None:
            if self._dataset is None:
                raise ValueError(
                    "train_epoch needs feats unless the trainer was "
                    "constructed with a dataset"
                )
            feats = self._dataset
        elif labels is None:
            raise ValueError("train_epoch needs labels when feats is given")
        source = as_source(feats, labels)
        # Remote fetches move the storage tier's wire format (quantized
        # codes + scales for a quantized source), not the dequantized
        # compute rows.
        wire_per_row = getattr(source, "wire_bytes_per_row", None)
        self.model.train()
        rng = self.hdgs.rng
        hdg = self.hdgs.block_source(epoch)
        pools = []
        for owned in self.partition.parts:
            if mask is not None:
                owned = owned[mask[owned]]
            pools.append(rng.permutation(owned))
        num_rounds = max(
            int(np.ceil(pool.size / self.batch_size)) for pool in pools
        )
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        simulated = 0.0
        total_bytes = 0.0
        total_messages = 0
        losses = []
        for round_no in range(num_rounds):
            comm = SimulatedComm(self.k, self.comm_config)
            compute = np.zeros(self.k)
            round_logits = []
            round_targets = []
            for w in range(self.k):
                pool = pools[w]
                seeds = pool[round_no * self.batch_size : (round_no + 1) * self.batch_size]
                if seeds.size == 0:
                    continue
                t0 = time.perf_counter()
                compact = sample_blocks(hdg, seeds, self.fanouts, rng)
                input_vertices = compact.input_vertices
                rows = source.gather_features(input_vertices)
                h = run_local_blocks(self.model, compact, Tensor(rows),
                                     self.strategy)
                round_logits.append(h[compact.seed_rows])
                compute[w] = time.perf_counter() - t0
                round_targets.append(source.gather_labels(seeds))
                feat_bytes = (int(wire_per_row) if wire_per_row is not None
                              else int(source.feat_dim) * rows.dtype.itemsize)
                # Remote feature fetches: input-block vertices owned by
                # other workers, one batched message per source worker.
                remote = input_vertices[self.labels_part[input_vertices] != w]
                if remote.size:
                    owners = self.labels_part[remote]
                    for src_w in np.unique(owners):
                        count = int((owners == src_w).sum())
                        comm.send(int(src_w), w, count * feat_bytes, messages=1)
            if not round_logits:
                continue
            loss = node_loss(concat(round_logits, axis=0),
                             np.concatenate(round_targets))
            t0 = time.perf_counter()
            train_step(loss, optimizer)
            backward = time.perf_counter() - t0
            losses.append(loss.item())
            # Round wall time: slowest worker (compute + fetches), then a
            # gradient allreduce; backward parallelizes over workers.
            comm_times = comm.step_times()
            simulated += float((compute + comm_times).max())
            simulated += backward / self.k
            simulated += comm.allreduce_time(param_bytes)
            total_bytes += comm.total_bytes
            total_messages += comm.total_messages
        return DistributedMiniBatchStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else 0.0,
            simulated_seconds=simulated,
            num_rounds=num_rounds,
            total_bytes=total_bytes,
            total_messages=total_messages,
        )
