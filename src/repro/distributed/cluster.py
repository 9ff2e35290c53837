"""Cluster-level helpers: scaling sweeps and distributed baseline models.

:func:`flexgraph_scaling` runs the real simulated-cluster trainer across
worker counts (Figure 13's x-axis).  The distributed baselines (DistDGL,
Euler) are modeled coarsely from their measured single-machine epoch plus
their communication patterns — they lack partial aggregation and
comm/compute overlap, so remote-neighbor features cross the network in
full and synchronization serializes with computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..tensor.optim import Adam
from ..tensor.tensor import Tensor
from .comm import CommConfig
from .trainer import DistributedTrainer

__all__ = ["ScalingPoint", "flexgraph_scaling", "model_baseline_scaling"]


@dataclass
class ScalingPoint:
    """One (worker count, epoch seconds) measurement."""

    k: int
    seconds: float
    loss: float | None = None


def flexgraph_scaling(
    model_factory,
    dataset,
    worker_counts: list[int],
    partitioner,
    pipeline: bool = True,
    comm_config: CommConfig | None = None,
    seed: int = 0,
) -> list[ScalingPoint]:
    """Simulated FlexGraph epoch time for each worker count.

    ``model_factory()`` must return a fresh NAU model; ``partitioner(k)``
    must return a vertex -> worker assignment.
    """
    points = []
    feats = Tensor(dataset.features)
    for k in worker_counts:
        model: NAUModel = model_factory()
        trainer = DistributedTrainer(
            model, dataset.graph, partitioner(k),
            strategy=ExecutionStrategy.HA, pipeline=pipeline,
            comm_config=comm_config, seed=seed,
        )
        optimizer = Adam(model.parameters(), lr=0.01)
        # Warm one epoch (HDG build), measure the second (steady state).
        trainer.train_epoch(feats, dataset.labels, optimizer, dataset.train_mask, 0)
        stats = trainer.train_epoch(
            feats, dataset.labels, optimizer, dataset.train_mask, 1
        )
        points.append(ScalingPoint(k, stats.simulated_seconds, stats.loss))
    return points


def model_baseline_scaling(
    single_machine_seconds: float,
    worker_counts: list[int],
    bytes_per_epoch: float,
    messages_per_epoch: int,
    comm_config: CommConfig | None = None,
    parallel_fraction: float = 0.95,
) -> list[ScalingPoint]:
    """Amdahl + alpha-beta model of a distributed baseline (DistDGL/Euler).

    ``bytes_per_epoch`` is the feature traffic the engine's strategy needs
    at k workers = 2 (scaled by the remote-edge fraction ``(k-1)/k`` for
    other k); communication is *not* overlapped with computation (neither
    system pipelines partial aggregation, §5).
    """
    config = comm_config or CommConfig()
    points = []
    for k in worker_counts:
        compute = single_machine_seconds * (
            (1 - parallel_fraction) + parallel_fraction / k
        )
        if k == 1:
            comm = 0.0
        else:
            remote_fraction = (k - 1) / k / 0.5  # normalize to the k=2 base
            per_worker_bytes = bytes_per_epoch * remote_fraction / k
            per_worker_msgs = max(1, int(messages_per_epoch * remote_fraction / k))
            comm = config.message_time(per_worker_bytes, per_worker_msgs)
        points.append(ScalingPoint(k, compute + comm))
    return points
