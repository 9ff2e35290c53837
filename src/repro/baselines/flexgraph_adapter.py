"""Adapter exposing FlexGraph itself through the baseline-engine interface
so benchmark tables can iterate over all competitors uniformly."""

from __future__ import annotations

import time

from ..core.engine import FlexGraphEngine
from ..core.hybrid import ExecutionStrategy
from ..tensor.scatter import peak_materialized_bytes, reset_materialized_bytes
from .common import BaselineEngine

__all__ = ["FlexGraphAdapter"]


class FlexGraphAdapter(BaselineEngine):
    """FlexGraph (HA strategy) behind the Table 2 engine interface.

    Its memory column is counted, not projected: the epoch's peak of
    per-edge bytes the tensor layer materialized, charged to the meter
    once the epoch has run (so an over-budget epoch is an OOM cell).
    """

    name = "flexgraph"
    supported_models = ("gcn", "pinsage", "magnn")

    def _prepare(self) -> None:
        super()._prepare()
        strategy = self.model_params.get("strategy", ExecutionStrategy.HA)
        self.engine = FlexGraphEngine(self.model, self.dataset.graph,
                                      strategy=strategy, seed=self.seed)

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        ds = self.dataset
        reset_materialized_bytes()
        t0 = time.perf_counter()
        stats = self.engine.train_epoch(
            self.feats, ds.labels, self.optimizer, ds.train_mask, epoch
        )
        seconds = time.perf_counter() - t0
        # The tensor layer counted every per-edge intermediate it built.
        self.memory.charge(peak_materialized_bytes(), "per-edge intermediates")
        return seconds, stats.loss, False
