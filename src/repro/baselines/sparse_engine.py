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

from ..core.hdg import HDG, build_hdg, hdg_from_flat_arrays
from ..core.hybrid import ExecutionStrategy, hierarchical_aggregate
from ..core.schema import SchemaTree
from ..core.selection import schema_for_metapaths, select_metapath_neighbors
from ..graph.metapath import count_length3_instances
from ..models.magnn import default_metapaths
from ..tensor.nn import as_param_dtype
from ..tensor.optim import Adam
from ..tensor.scatter import scatter_add
from ..tensor.tensor import Tensor
from .common import BaselineEngine
from .model_math import BaselineModel
from .walk_sim import propagation_random_walks, top_k_from_visits

__all__ = ["PyTorchEngine"]


class PyTorchEngine(BaselineEngine):
    """Sparse-tensor-only execution (the PyTorch column of Table 2)."""

    name = "pytorch"
    supported_models = ("gcn", "pinsage", "magnn")

    def _prepare(self) -> None:
        ds = self.dataset
        self.model = BaselineModel(
            self.model_name, ds.feat_dim, self.hidden_dim, ds.num_classes,
            seed=self.seed,
        )
        self.optimizer = Adam(self.model.parameters(), lr=0.01)
        self.feats = Tensor(as_param_dtype(self.model, ds.features))
        if self.model_name == "gcn":
            # COO index tensors, rebuilt once (static graph).
            self._dst, self._src = ds.graph.coo()
        elif self.model_name == "magnn":
            self.metapaths = self.model_params.get("metapaths") or default_metapaths(
                ds.graph.num_types
            )
            self._cap = self.model_params.get("max_instances_per_root")
        self._walk_params = {
            "num_traces": self.model_params.get("num_traces", 10),
            "n_hops": self.model_params.get("n_hops", 3),
            "top_k": self.model_params.get("top_k", 10),
        }

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
        for layer in range(self.model.num_layers):
            dim = h.shape[1]
            edge_bytes = self._src.size * dim * 8
            # Scatter stage: materialize source features on every edge.
            self.memory.charge(edge_bytes, "edge messages (Scatter)")
            edge_feats = h[self._src]
            # ApplyEdge stage: identity NN pass over the edge tensor —
            # a second full-size edge temporary.
            self.memory.charge(edge_bytes, "edge messages (ApplyEdge)")
            edge_feats = edge_feats * 1.0
            agg = scatter_add(edge_feats, self._dst, n)
            self.memory.release(2 * edge_bytes)
            h = self.model.update(layer, h, agg)
        return self.model.train_step(h, ds.labels, ds.train_mask, self.optimizer)

    def _pinsage_epoch(self) -> float:
        ds = self.dataset
        # Walk simulation by graph propagation, re-run every epoch; plain
        # PyTorch stages each hop through two edge tensors.
        roots, visited = propagation_random_walks(
            ds.graph, self._walk_params["num_traces"], self._walk_params["n_hops"],
            self._rng, self.memory, edge_temporaries=2,
        )
        owners, nbrs, weights = top_k_from_visits(
            roots, visited, ds.graph.num_vertices, self._walk_params["top_k"]
        )
        all_roots = np.arange(ds.graph.num_vertices, dtype=np.int64)
        hdg = hdg_from_flat_arrays(
            SchemaTree(), all_roots, owners, nbrs, weights, ds.graph.num_vertices
        )
        h = self.feats
        for layer in range(self.model.num_layers):
            agg = self._charged_sparse_aggregate(hdg, h, layer)
            h = self.model.update(layer, h, agg)
        return self.model.train_step(h, ds.labels, ds.train_mask, self.optimizer)

    def _magnn_epoch(self) -> float:
        ds = self.dataset
        # Project the per-instance feature tensor a naive implementation
        # materializes; refuse before doing the work if it cannot fit.
        # The naive tensor join materializes *every* matched instance
        # before any per-root cap can be applied, so the projection uses
        # the uncapped count — this is the intermediate-tensor blow-up
        # behind the paper's OOM cells (§7.1).
        total_instances = sum(
            count_length3_instances(ds.graph, mp)
            for mp in self.metapaths
            if mp.length == 3
        )
        inst_bytes = total_instances * 3 * self.feats.shape[1] * 8
        self.memory.charge(inst_bytes, "metapath instance feature tensor")
        # Naive implementations re-discover instances every epoch (there
        # is no HDG cache); this DFS dominates the epoch (§7.1: >95%).
        records = select_metapath_neighbors(
            ds.graph, self.metapaths, max_instances_per_root=self._cap
        )
        roots = np.arange(ds.graph.num_vertices, dtype=np.int64)
        hdg = build_hdg(
            records, schema_for_metapaths(self.metapaths), roots,
            ds.graph.num_vertices, flat=False,
        )
        h = self.feats
        for layer in range(self.model.num_layers):
            agg = hierarchical_aggregate(
                hdg, h, self.model.magnn_aggregators[layer], ExecutionStrategy.SA
            )
            h = self.model.update(layer, h, agg)
        loss = self.model.train_step(h, ds.labels, ds.train_mask, self.optimizer)
        self.memory.release(inst_bytes)
        return loss

    # ------------------------------------------------------------------
    def _charged_sparse_aggregate(self, hdg: HDG, h: Tensor, layer: int) -> Tensor:
        """Flat SA aggregation with edge-tensor memory accounting."""
        edge_bytes = hdg.leaf_vertices.size * h.shape[1] * 8
        self.memory.charge(edge_bytes, "edge messages")
        dst, src = hdg.sub_graph(1)
        gathered = h[src]
        if hdg.leaf_weights is not None:
            gathered = gathered * Tensor(hdg.leaf_weights.reshape(-1, 1))
        agg = scatter_add(gathered, dst, hdg.num_roots)
        self.memory.release(edge_bytes)
        return agg
