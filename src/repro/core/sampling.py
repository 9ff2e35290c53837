"""Sampled mini-batch training over HDGs — GraphSAGE-style fan-out
sampling for every NAU model.

The block machinery (fan-out sampling, seed blocks, batch-local
coordinates) lives in :mod:`repro.core.step`; this module is the
single-machine trainer over it.  Flat-HDG (DNFA and INFA) models take
integer fan-outs; a hierarchical (INHA) model trains on full
neighborhoods (``fanouts=[None] * num_layers``) and bounds its work at
selection time (MAGNN's ``max_instances_per_root``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .. import obs
from ..graph.graph import Graph
from ..tensor.loss import accuracy
from ..tensor.nn import as_param_dtype
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor, no_grad
from .hybrid import ExecutionStrategy
from .nau import NAUModel
from .step import (
    ModelHDGs,
    epoch_counts,
    epoch_mark,
    node_loss,
    run_local_blocks,
    train_step,
)

__all__ = ["MiniBatchTrainer", "MiniBatchEpochStats"]


@dataclass
class MiniBatchEpochStats:
    """Outcome of one sampled mini-batch epoch.

    The stage fields break the epoch down by pipeline stage: *sample*
    and *gather* are production work (overlappable with training when
    ``prefetch_depth > 0``), *train* is the sequential
    forward/backward/step, and *wait* is how long the training loop sat
    idle waiting for the next batch.  ``overlap_efficiency`` is
    ``1 - wait / (sample + gather)`` clamped to [0, 1]: 0 means
    production was fully exposed (the synchronous baseline), 1 means it
    hid entirely behind training.
    """

    epoch: int
    loss: float                # mean over batches
    seconds: float
    num_batches: int
    train_accuracy: float | None = None
    sample_seconds: float = 0.0
    gather_seconds: float = 0.0
    train_seconds: float = 0.0
    wait_seconds: float = 0.0
    overlap_efficiency: float = 0.0
    prefetch_depth: int = 0


class MiniBatchTrainer:
    """GraphSAGE-style sampled training for any NAU model.

    Parameters
    ----------
    model:
        Any NAU model; a hierarchical (INHA) one needs ``None`` fan-outs.
    data:
        The input graph, or a dataset carrying one — an in-RAM
        ``Dataset`` or an out-of-core
        :class:`~repro.storage.ondisk.OnDiskDataset`.  With a dataset,
        ``train_epoch`` can be called without ``feats``/``labels`` and
        features are gathered per batch from the dataset (for ondisk
        data: only the memmap pages the batch touches).  A feature
        codec is the store's: pass a
        :class:`~repro.loader.QuantizedSource` (or a quantized
        ``OnDiskDataset``) to train from quantized rows.
    batch_size:
        Seed vertices per batch.
    fanouts:
        Per-layer neighbor budgets, bottom layer first; must have one
        entry per model layer.  ``None`` keeps a layer's full
        neighborhoods; an integer budget applies to flat HDGs only.
    prefetch_depth:
        Batches produced ahead of the training loop by background
        workers (see :class:`~repro.loader.StreamingLoader`).  ``0``
        (default) trains synchronously.  Epoch sampling is seeded per
        batch from ``(seed, epoch)``, so losses are identical across
        prefetch depths and worker counts.
    num_workers:
        Loader worker threads when ``prefetch_depth > 0``.
    """

    def __init__(self, model: NAUModel, data, batch_size: int = 256,
                 fanouts: list[int | None] | None = None,
                 strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
                 seed: int = 0, prefetch_depth: int = 0,
                 num_workers: int = 2):
        self.model = model
        self._dataset = data if hasattr(data, "graph") else None
        self.graph: Graph = data.graph if self._dataset is not None else data
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.fanouts = list(fanouts) if fanouts is not None else [10] * model.num_layers
        if len(self.fanouts) != model.num_layers:
            raise ValueError(
                f"need one fanout per layer ({model.num_layers}), got {len(self.fanouts)}"
            )
        self.strategy = ExecutionStrategy.parse(strategy)
        self.seed = int(seed)
        self.prefetch_depth = int(prefetch_depth)
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.num_workers = int(num_workers)
        self.hdgs = ModelHDGs(model, self.graph, np.random.default_rng(seed))

    def _resolve_source(self, feats, labels):
        """Normalize ``train_epoch`` input into a loader source."""
        from ..loader.source import as_source

        if feats is None:
            if self._dataset is None:
                raise ValueError(
                    "train_epoch needs feats unless the trainer was "
                    "constructed with a dataset"
                )
            feats = self._dataset
        return as_source(feats, labels)

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats=None,
        labels: np.ndarray | None = None,
        optimizer: Optimizer | None = None,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> MiniBatchEpochStats:
        """One pass over the (masked) vertices in sampled mini-batches.

        ``feats`` is a feature array / ``Tensor`` or any
        :class:`~repro.loader.DataSource` (default: the trainer's
        dataset); an explicit ``labels`` array overrides the source's.
        Batches flow through the staged loader (sample → gather →
        train); with ``prefetch_depth > 0`` the first two stages run on
        background workers while earlier batches train.
        The per-batch RNG seeds are pre-drawn from ``(seed, epoch)``, so
        the losses do not depend on prefetch depth or worker count.
        """
        from ..loader.pipeline import StreamingLoader

        if optimizer is None:
            raise ValueError("train_epoch needs an optimizer")
        self.model.train()
        t0 = time.perf_counter()
        mark = epoch_mark()
        hdg, _ = self.hdgs.model_level(epoch)
        n = self.graph.num_vertices
        pool = np.flatnonzero(mask) if mask is not None else np.arange(n)
        loader = StreamingLoader(
            self._resolve_source(feats, labels), self.fanouts,
            batch_size=self.batch_size, prefetch_depth=self.prefetch_depth,
            num_workers=self.num_workers,
        )
        batches = iter(loader.epoch_batches(hdg, pool, epoch=epoch, seed=self.seed))
        losses = []
        correct = 0
        sample_s = gather_s = train_s = wait_s = 0.0
        while True:
            t_wait = time.perf_counter()
            batch = next(batches, None)
            wait_s += time.perf_counter() - t_wait
            if batch is None:
                break
            t_train = time.perf_counter()
            h = run_local_blocks(self.model, batch.compact, batch.feats,
                                 self.strategy)
            logits = h[batch.seed_rows]
            loss = node_loss(logits, batch.labels)
            train_step(loss, optimizer)
            train_s += time.perf_counter() - t_train
            losses.append(loss.item())
            correct += int(
                (logits.numpy().argmax(axis=1) == batch.labels).sum()
            )
            sample_s += batch.sample_seconds
            gather_s += batch.gather_seconds
        hidden = sample_s + gather_s
        overlap = min(max(1.0 - wait_s / hidden, 0.0), 1.0) if hidden > 0 else 0.0
        seconds = time.perf_counter() - t0
        stats = MiniBatchEpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else 0.0,
            seconds=seconds,
            num_batches=len(losses),
            train_accuracy=correct / max(pool.size, 1),
            sample_seconds=sample_s,
            gather_seconds=gather_s,
            train_seconds=train_s,
            wait_seconds=wait_s,
            overlap_efficiency=overlap,
            prefetch_depth=self.prefetch_depth,
        )
        obs.event("epoch", **asdict(stats), **epoch_counts(mark))
        return stats

    def evaluate(self, feats: Tensor, labels: np.ndarray,
                 mask: np.ndarray | None = None) -> float:
        """Full-neighborhood inference accuracy (standard for sampled
        training: sample at train time, exact at eval time)."""
        self.model.eval()
        hdg = self.hdgs.model_hdg
        if hdg is None:
            hdg, _ = self.hdgs.model_level(0)
        with no_grad():
            h = self.model.forward(as_param_dtype(self.model, feats), hdg,
                                   self.strategy)
        self.model.train()
        return accuracy(h, labels, mask)
