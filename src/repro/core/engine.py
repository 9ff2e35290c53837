"""Single-machine GNN execution engine (the core of Figure 12).

The engine runs each layer's stages under :mod:`repro.obs` spans (the
per-stage breakdown of Table 4) and drives the full-batch training loop
on the shared step core (:mod:`repro.core.step`): HDG lifecycle, loss
head and optimise step live there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .. import obs
from ..graph.graph import Graph
from ..tensor.loss import accuracy
from ..tensor.nn import as_param_dtype
from ..tensor.optim import Optimizer
from ..tensor.scatter import MATERIALIZED_BYTES_COUNTER
from ..tensor.tensor import Tensor, no_grad
from .hdg import HDG
from .hybrid import ExecutionStrategy
from .nau import NAUModel
from .step import ModelHDGs, epoch_counts, epoch_mark, node_loss, train_step

__all__ = ["StageTimes", "EpochStats", "FlexGraphEngine", "STAGE_SPANS"]

#: obs span names for the four NAU stages (Table 4's columns).
STAGE_SPANS = {
    "neighbor_selection": "stage.neighbor_selection",
    "aggregation": "stage.aggregation",
    "update": "stage.update",
    "backward": "stage.backward",
}


@dataclass
class StageTimes:
    """Wall-clock seconds per NAU stage (Table 4's columns).

    This is now a thin *view* over ``repro.obs`` span data: the engine
    emits one ``stage.*`` span per layer per stage and sums their
    durations here, so ``EpochStats.times`` and an exported trace always
    agree exactly.  :meth:`from_spans` rebuilds the same view from any
    span collection (live records or an exported JSON trace).
    """

    neighbor_selection: float = 0.0
    aggregation: float = 0.0
    update: float = 0.0
    backward: float = 0.0

    @property
    def total(self) -> float:
        return self.neighbor_selection + self.aggregation + self.update + self.backward

    @classmethod
    def from_spans(cls, spans: Iterable) -> "StageTimes":
        """Aggregate ``stage.*`` spans (records or trace dicts) by stage."""
        by_span_name = {v: k for k, v in STAGE_SPANS.items()}
        times = cls()
        for s in spans:
            name = s["name"] if isinstance(s, dict) else s.name
            duration = s["duration"] if isinstance(s, dict) else s.duration
            stage = by_span_name.get(name)
            if stage is not None:
                setattr(times, stage, getattr(times, stage) + float(duration))
        return times


@dataclass
class EpochStats:
    """Result of one training epoch."""

    epoch: int
    loss: float
    times: StageTimes = field(default_factory=StageTimes)
    train_accuracy: float | None = None


class FlexGraphEngine:
    """Translate a :class:`NAUModel` into an execution plan and run it.

    Parameters
    ----------
    model:
        The NAU program to execute.
    graph:
        Input graph.
    strategy:
        Aggregation execution strategy (Figure 14); default HA.
    seed:
        Seed for NeighborSelection randomness (PinSage's walks).
    """

    def __init__(self, model: NAUModel, graph: Graph,
                 strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
                 seed: int = 0):
        self.model = model
        self.graph = graph
        self.strategy = ExecutionStrategy.parse(strategy)
        self.hdgs = ModelHDGs(model, graph, np.random.default_rng(seed))
        self.last_times = StageTimes()

    def hdg_for_layer(self, layer_index: int, epoch: int = 0) -> HDG:
        """The HDG layer ``layer_index`` aggregates over at ``epoch``:
        the model-level one, shared by every layer."""
        if not 0 <= layer_index < self.model.num_layers:
            raise IndexError(f"layer {layer_index} out of range for a "
                             f"{self.model.num_layers}-layer model")
        return self.hdgs.model_level(epoch)[0]

    def invalidate_hdgs(self) -> None:
        """Drop the cached HDG (e.g. after the graph changed)."""
        self.hdgs.invalidate()

    # ------------------------------------------------------------------
    # Forward / training
    # ------------------------------------------------------------------
    def forward(self, feats: Tensor, epoch: int = 0) -> Tensor:
        """Run all layers, accumulating per-stage times in ``last_times``.

        Each stage runs under a ``stage.*`` obs span; ``last_times`` is
        the per-stage sum of those spans' durations.  ``feats`` is cast
        to the model's parameter dtype (no copy when it already is).
        """
        times = StageTimes()
        h = as_param_dtype(self.model, feats)
        for i, layer in enumerate(self.model.layers):
            with obs.span(STAGE_SPANS["neighbor_selection"],
                          layer=i, epoch=epoch) as s_sel:
                hdg, _ = self.hdgs.model_level(epoch)
                # The selection stage's work is structural, not FLOPs: it
                # hands the HDG (offsets, leaves, schema) to aggregation.
                obs.record_op("neighbor_selection.hdg",
                              bytes_read=hdg.nbytes)
            with obs.span(STAGE_SPANS["aggregation"],
                          layer=i, epoch=epoch,
                          strategy=self.strategy.value) as s_agg:
                nbr = layer.aggregation(h, hdg, self.strategy)
            with obs.span(STAGE_SPANS["update"], layer=i, epoch=epoch) as s_upd:
                h = layer.update(h, nbr)
            times.neighbor_selection += s_sel.duration
            times.aggregation += s_agg.duration
            times.update += s_upd.duration
        self.last_times = times
        return h

    def train_epoch(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> EpochStats:
        """One full-batch training epoch: forward, loss, backward, step."""
        self.model.train()
        mat = obs.counter(MATERIALIZED_BYTES_COUNTER)
        mat_mark = mat.current
        mark = epoch_mark()
        with obs.span("engine.train_epoch", epoch=epoch):
            logits = self.forward(feats, epoch)
            loss = node_loss(logits, labels, mask)
            with obs.span(STAGE_SPANS["backward"], epoch=epoch) as s_back:
                train_step(loss, optimizer)
            self.last_times.backward = s_back.duration
        # Per-edge intermediates die with the tape after backward; release
        # them so the counter's peak tracks per-epoch concurrent bytes
        # while its total keeps accumulating across the run.
        mat.release(mat.current - mat_mark)
        train_acc = accuracy(logits, labels, mask)
        seconds = self.last_times.total
        obs.event(
            "epoch",
            epoch=epoch,
            loss=loss.item(),
            seconds=seconds,
            train_accuracy=train_acc,
            vertices_per_sec=(
                self.graph.num_vertices / seconds if seconds > 0 else 0.0
            ),
            **epoch_counts(mark),
        )
        return EpochStats(
            epoch=epoch,
            loss=loss.item(),
            times=self.last_times,
            train_accuracy=train_acc,
        )

    def fit(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        num_epochs: int,
        mask: np.ndarray | None = None,
        verbose: bool = False,
        scheduler=None,
        early_stopping=None,
        val_mask: np.ndarray | None = None,
    ) -> list[EpochStats]:
        """Train for up to ``num_epochs`` epochs and return per-epoch stats.

        ``scheduler`` (an ``repro.tensor.schedulers.LRScheduler``) steps
        once per epoch; ``early_stopping`` monitors validation accuracy
        when ``val_mask`` is given, else training loss.
        """
        history = []
        for epoch in range(num_epochs):
            if scheduler is not None:
                scheduler.step()
            stats = self.train_epoch(feats, labels, optimizer, mask, epoch)
            history.append(stats)
            if verbose:
                print(
                    f"epoch {epoch:3d}  loss={stats.loss:.4f}  "
                    f"acc={stats.train_accuracy:.3f}  time={stats.times.total:.3f}s"
                )
            if early_stopping is not None:
                if val_mask is not None:
                    monitored = self.evaluate(feats, labels, val_mask)
                else:
                    monitored = stats.loss
                if early_stopping.update(monitored):
                    if verbose:
                        print(f"early stop at epoch {epoch} "
                              f"(best epoch {early_stopping.best_epoch})")
                    break
        return history

    def _inference_forward(self, feats: Tensor) -> Tensor:
        """Full forward in eval mode with gradients off; restores the
        model's training flag afterwards (shared by :meth:`predict`,
        :meth:`embed` and :meth:`evaluate`)."""
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                return self.forward(feats)
        finally:
            self.model.train(was_training)

    def predict(self, feats: Tensor,
                vertices: np.ndarray | None = None) -> np.ndarray:
        """Argmax class predictions (no gradients).

        ``vertices`` restricts the returned predictions to a seed subset
        (the forward still covers the whole graph; seed-restricted
        *compute* lives in :mod:`repro.serve`).
        """
        logits = self._inference_forward(feats).numpy()
        if vertices is not None:
            logits = logits[np.asarray(vertices, dtype=np.int64)]
        return logits.argmax(axis=1)

    def embed(self, feats: Tensor,
              vertices: np.ndarray | None = None) -> np.ndarray:
        """Final-layer representations (no gradients) — the
        low-dimensional features §2.1's downstream tasks consume.
        ``vertices`` restricts the returned rows to a seed subset."""
        out = self._inference_forward(feats).numpy()
        if vertices is not None:
            return out[np.asarray(vertices, dtype=np.int64)].copy()
        return out.copy()

    def evaluate(self, feats: Tensor, labels: np.ndarray,
                 mask: np.ndarray | None = None) -> float:
        """Accuracy of the current model on ``mask`` (no gradients)."""
        return accuracy(self._inference_forward(feats), labels, mask)
