"""PyTorch-style baseline: pure sparse-tensor execution.

Models the paper's "PyTorch v1.5.1" competitor (Table 2): graphs are
encoded as sparse index tensors and every graph operation is simulated
with tensor ops —

* **GCN**: each layer explicitly stages Scatter (gather source features
  onto edges) and ApplyEdge (an identity pass over the edge tensor)
  before reducing, materializing *two* ``(E, dim)`` temporaries per layer
  (§4.2's memory-explosion path).
* **PinSage**: random walks are simulated with per-hop O(E) graph
  propagation (>95% of epoch time, §7.1) and re-run every epoch.
* **MAGNN**: metapath instances are re-discovered every epoch with the
  naive DFS matcher, and aggregation materializes per-instance member
  features — the "large intermediate tensors" that OOM on big graphs.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.hdg import hdg_from_instance_arrays
from ..core.hybrid import ExecutionStrategy, hierarchical_aggregate
from ..core.selection import schema_for_metapaths
from ..graph.metapath import count_length3_instances, find_metapath_instances
from ..tensor.scatter import scatter_add
from .common import BaselineEngine, update
from .walk_sim import propagation_random_walks, top_k_from_visits

__all__ = ["PyTorchEngine"]


class PyTorchEngine(BaselineEngine):
    """Sparse-tensor-only execution (the PyTorch column of Table 2)."""

    name = "pytorch"
    supported_models = ("gcn", "pinsage", "magnn")

    def _prepare(self) -> None:
        super()._prepare()
        if self.model_name == "gcn":
            # COO index tensors, rebuilt once (static graph).
            self._dst, self._src = self.dataset.graph.coo()

    # ------------------------------------------------------------------
    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        t0 = time.perf_counter()
        if self.model_name == "gcn":
            loss = self._gcn_epoch()
        elif self.model_name == "pinsage":
            loss = self._pinsage_epoch()
        else:
            loss = self._magnn_epoch()
        return time.perf_counter() - t0, loss, False

    # ------------------------------------------------------------------
    def _gcn_epoch(self) -> float:
        ds = self.dataset
        h = self.feats
        n = ds.graph.num_vertices
        for layer in self.model.layers:
            edges = (self._src.size, h.shape[1])
            # Scatter stage: materialize source features on every edge.
            with self.memory.hold(edges, h.dtype, "edge messages (Scatter)"):
                edge_feats = h[self._src]
                # ApplyEdge stage: identity NN pass over the edge tensor —
                # a second full-size edge temporary.
                with self.memory.hold(edges, h.dtype, "edge messages (ApplyEdge)"):
                    edge_feats = edge_feats * 1.0
                    agg = scatter_add(edge_feats, self._dst, n)
            h = update(layer, h, agg)
        return self._train_step(h, ds.labels, ds.train_mask)

    def _pinsage_epoch(self) -> float:
        ds, model = self.dataset, self.model
        # Walk simulation by graph propagation, re-run every epoch; plain
        # PyTorch stages each hop through two edge tensors.
        roots, visited = propagation_random_walks(
            ds.graph, model.num_traces, model.n_hops, self._rng, self.memory,
            edge_temporaries=2,
        )
        owners, nbrs, weights = top_k_from_visits(
            roots, visited, ds.graph.num_vertices, model.top_k
        )
        return self._weighted_flat_epoch(owners, nbrs, weights)

    def _magnn_epoch(self) -> float:
        ds, model = self.dataset, self.model
        # Project the per-instance feature tensor a naive implementation
        # materializes; refuse before doing the work if it cannot fit.
        # The naive tensor join materializes *every* matched instance
        # before any per-root cap can be applied, so the projection uses
        # the uncapped count — this is the intermediate-tensor blow-up
        # behind the paper's OOM cells (§7.1).
        total_instances = sum(
            count_length3_instances(ds.graph, mp)
            for mp in model.metapaths
            if mp.length == 3
        )
        with self.memory.hold((total_instances, 3, self.feats.shape[1]),
                              self.feats.dtype, "metapath instance feature tensor"):
            # Naive implementations re-discover instances every epoch
            # (there is no HDG cache); this DFS dominates the epoch (§7.1:
            # >95%).
            roots = np.arange(ds.graph.num_vertices, dtype=np.int64)
            hdg = hdg_from_instance_arrays(
                schema_for_metapaths(model.metapaths), roots,
                *find_metapath_instances(
                    ds.graph, model.metapaths,
                    max_instances_per_root=model.max_instances_per_root,
                ),
                ds.graph.num_vertices,
            )
            h = self.feats
            for layer in model.layers:
                agg = hierarchical_aggregate(
                    hdg, h, layer.aggregators, ExecutionStrategy.SA
                )
                h = update(layer, h, agg)
            return self._train_step(h, ds.labels, ds.train_mask)
