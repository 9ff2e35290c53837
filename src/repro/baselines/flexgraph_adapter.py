"""Adapter exposing FlexGraph itself through the baseline-engine interface
so benchmark tables can iterate over all competitors uniformly."""

from __future__ import annotations

import time

from ..core.engine import FlexGraphEngine
from ..core.hybrid import ExecutionStrategy
from ..models.gcn import gcn
from ..models.magnn import default_metapaths, magnn
from ..models.pinsage import pinsage
from ..tensor.optim import Adam
from ..tensor.scatter import peak_materialized_bytes, reset_materialized_bytes
from ..tensor.tensor import Tensor
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
        ds = self.dataset
        if self.model_name == "gcn":
            model = gcn(ds.feat_dim, self.hidden_dim, ds.num_classes, seed=self.seed)
        elif self.model_name == "pinsage":
            model = pinsage(
                ds.feat_dim, self.hidden_dim, ds.num_classes, seed=self.seed,
                **self._walk_params,
            )
        else:
            model = magnn(
                ds.feat_dim, self.hidden_dim, ds.num_classes, seed=self.seed,
                metapaths=self.model_params.get("metapaths")
                or default_metapaths(ds.graph.num_types),
                max_instances_per_root=self.model_params.get("max_instances_per_root"),
            )
        self.model = model
        strategy = self.model_params.get("strategy", ExecutionStrategy.HA)
        self.engine = FlexGraphEngine(model, ds.graph, strategy=strategy, seed=self.seed)
        self.optimizer = Adam(model.parameters(), lr=0.01)
        self.feats = Tensor(ds.features)

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
