"""Pre+DGL: GAS-like execution over a pre-computed expanded graph (§7.2).

Pre+DGL "simulates" FlexGraph inside a GAS-like framework: an offline
pre-computation materializes the HDGs as an expanded graph, and runtime
applies GAS operations on it.  Per the paper, reported epoch time covers
only the computation *on* the expanded graph, not the pre-computation.

* **PinSage**: HDGs differ per epoch (walks are stochastic), so the
  expansion can only be approximated: many walks run offline build an
  importance-weighted candidate graph; each epoch *weighted-samples*
  top-k neighbors from the (larger) candidate lists and aggregates with
  scatter ops.
* **MAGNN**: HDGs are static, so the expansion is exact; each layer runs
  multiple GAS rounds over the expanded graph — scatter ops at every
  level (no feature fusion, no dense schema-level reduction).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.hybrid import ExecutionStrategy, hierarchical_aggregate
from ..graph.graph import group_by
from ..graph.random_walk import top_k_visited
from .common import BaselineEngine, update

__all__ = ["PreDGLEngine"]


class PreDGLEngine(BaselineEngine):
    """The Pre+DGL baseline of Table 3."""

    name = "pre+dgl"
    supported_models = ("pinsage", "magnn")

    def _prepare(self) -> None:
        super()._prepare()
        self.precompute_seconds = 0.0
        t0 = time.perf_counter()
        if self.model_name == "pinsage":
            self._precompute_pinsage_candidates()
        else:
            self._precompute_magnn_expansion()
        self.precompute_seconds = time.perf_counter() - t0

    # -- offline pre-computation (not counted in epoch time) ---------------
    def _precompute_pinsage_candidates(self) -> None:
        ds, model = self.dataset, self.model
        n = ds.graph.num_vertices
        roots = np.arange(n, dtype=np.int64)
        oversample = self.model_params.get("oversample", 4)
        # Run many more walks offline and keep an enlarged candidate list
        # per root, with importance weights.
        owners, nbrs, weights = top_k_visited(
            ds.graph, roots, model.num_traces * oversample, model.n_hops,
            model.top_k * oversample, self._rng,
        )
        self._cand_offsets, order = group_by(owners, n)
        self._cand_owner = owners[order]
        self._cand_nbr = nbrs[order]
        self._cand_weight = weights[order]

    def _precompute_magnn_expansion(self) -> None:
        # MAGNN's HDGs are static: the expanded graph is exactly the
        # model's own metapath selection, built once.
        self._expanded_hdg = self.model.neighbor_selection(self.dataset.graph, self._rng)

    # -- runtime ------------------------------------------------------------
    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        t0 = time.perf_counter()
        if self.model_name == "pinsage":
            loss = self._pinsage_epoch()
        else:
            loss = self._magnn_epoch()
        return time.perf_counter() - t0, loss, False

    def _pinsage_epoch(self) -> float:
        ds = self.dataset
        n = ds.graph.num_vertices
        k = self.model.top_k
        # Weighted sampling of k neighbors per root from the candidate
        # lists — cheaper than walking, but over a larger edge set than
        # FlexGraph's exact top-k HDG.  Vectorized weighted reservoir
        # sampling: per-root top-k of u^(1/w) keys.
        keys = self._rng.random(self._cand_nbr.size) ** (
            1.0 / np.maximum(self._cand_weight, 1e-12)
        )
        order = np.lexsort((self._cand_nbr, -keys, self._cand_owner))
        owner_s = self._cand_owner[order]
        change = np.flatnonzero(np.diff(owner_s, prepend=owner_s[0] - 1)) if owner_s.size else np.empty(0, dtype=np.int64)
        group_start = np.zeros(owner_s.size, dtype=np.int64)
        group_start[change] = change
        group_start = np.maximum.accumulate(group_start)
        rank = np.arange(owner_s.size) - group_start
        keep = order[rank < k]
        owners = self._cand_owner[keep]
        nbrs = self._cand_nbr[keep]
        raw = self._cand_weight[keep]
        sums = np.bincount(owners, weights=raw, minlength=n)
        weights = raw / sums[owners]
        return self._weighted_flat_epoch(owners, nbrs, weights)

    def _magnn_epoch(self) -> float:
        ds = self.dataset
        hdg = self._expanded_hdg
        h = self.feats
        for layer in self.model.layers:
            # Multiple GAS rounds on the expanded graph = scatter ops at
            # every HDG level (the SA strategy).
            with self.memory.hold((hdg.leaf_vertices.size, h.shape[1]), h.dtype,
                                  "expanded-graph messages"):
                agg = hierarchical_aggregate(
                    hdg, h, layer.aggregators, ExecutionStrategy.SA
                )
            h = update(layer, h, agg)
        return self._train_step(h, ds.labels, ds.train_mask)
