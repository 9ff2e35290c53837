"""Euler-style baseline: mini-batch training with a graph sampling engine.

Euler (and AliGraph, which the paper treats as equivalent) trains GNNs by
sampling: an efficient graph query engine — Euler exposes Gremlin — pulls
each batch's neighborhood, which is then converted to tensors and
aggregated with sparse ops.

* **PinSage**: the sampling engine's random-walk kernel is fast (Euler is
  the best baseline on PinSage in Table 2), but aggregation still runs
  through per-edge scatter ops rather than fused reduction.
* **GCN**: a 2-layer GCN forces full 2-hop-neighborhood queries per
  batch; on dense or power-law graphs the per-sample expansions are
  enormous — the ">3600s" / OOM cells of Table 2.
* **MAGNN**: outside the abstraction — unsupported.

The sampling engine here is the vectorized walk kernel
(:func:`~repro.graph.random_walk.top_k_visited`); Euler's query language
itself is not modelled.
"""

from __future__ import annotations

import time

import numpy as np

from ..graph.random_walk import top_k_visited
from .saga_nn import DistDGLEngine

__all__ = ["EulerEngine"]


class EulerEngine(DistDGLEngine):
    """Mini-batch sampling framework with a fast query engine."""

    name = "euler"
    supported_models = ("gcn", "pinsage")

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        if self.model_name == "pinsage":
            t0 = time.perf_counter()
            loss = self._pinsage_sampled_epoch()
            return time.perf_counter() - t0, loss, False
        # GCN: per-sample neighborhoods are materialized with duplication
        # before tensor conversion (no dedup), unlike DistDGL.
        return self._minibatch_gcn_epoch(dedup=False)

    def _pinsage_sampled_epoch(self) -> float:
        graph = self.dataset.graph
        roots = np.arange(graph.num_vertices, dtype=np.int64)
        # Euler's efficient sampling engine: the fast walk kernel; the
        # aggregation stays sparse tensor ops (no feature fusion).
        model = self.model
        owners, nbrs, weights = top_k_visited(
            graph, roots, model.num_traces, model.n_hops, model.top_k, self._rng,
        )
        return self._weighted_flat_epoch(owners, nbrs, weights)
