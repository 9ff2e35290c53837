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
from ..tensor.tensor import Tensor
from .common import BaselineEngine

__all__ = ["FlexGraphAdapter"]


class FlexGraphAdapter(BaselineEngine):
    """FlexGraph (HA strategy) behind the Table 2 engine interface."""

    name = "flexgraph"
    supported_models = ("gcn", "pinsage", "magnn")

    def _prepare(self) -> None:
        ds = self.dataset
        if self.model_name == "gcn":
            model = gcn(ds.feat_dim, self.hidden_dim, ds.num_classes, seed=self.seed)
        elif self.model_name == "pinsage":
            model = pinsage(
                ds.feat_dim, self.hidden_dim, ds.num_classes, seed=self.seed,
                num_traces=self.model_params.get("num_traces", 10),
                n_hops=self.model_params.get("n_hops", 3),
                top_k=self.model_params.get("top_k", 10),
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
        t0 = time.perf_counter()
        stats = self.engine.train_epoch(
            self.feats, ds.labels, self.optimizer, ds.train_mask, epoch
        )
        return time.perf_counter() - t0, stats.loss, False

    @property
    def last_stage_times(self):
        """Per-stage breakdown of the most recent epoch (Table 4)."""
        return self.engine.last_times
