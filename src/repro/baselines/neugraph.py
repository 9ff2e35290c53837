"""NeuGraph-style chunked whole-graph execution (§8 related work).

NeuGraph "first splits a large graph into multiple chunks, using a 2-D
graph partitioning; it then processes one chunk each time where a
GAS-like abstraction (SAGA-NN) is applied on each chunk and the
intermediate result of each chunk is stored; and finally it combines all
intermediate results after all chunks are processed."  The paper could
not benchmark it (no public implementation); this module reconstructs
the strategy so the comparison exists here as an extension:

* destination vertices are split into ``num_chunks`` row blocks and
  source vertices into column blocks (the 2-D edge grid);
* each (dst-block, src-block) chunk runs SAGA-NN over only its edges,
  producing a partial aggregate for the dst block;
* partial aggregates accumulate across the row, bounding the live edge
  state to one chunk (the point of chunking) at ~``E/num_chunks^2``
  edges, at the cost of chunk-scheduling overhead.
"""

from __future__ import annotations

import time

import numpy as np

from ..graph.graph import group_by
from ..tensor.ops import zeros
from ..tensor.scatter import scatter_add
from .common import BaselineEngine, update

__all__ = ["NeuGraphEngine"]


class NeuGraphEngine(BaselineEngine):
    """Chunk-at-a-time whole-graph GAS execution (DNFA models only —
    SAGA-NN's expressivity limit applies just as it does to DGL)."""

    name = "neugraph"
    supported_models = ("gcn",)

    def _prepare(self) -> None:
        super()._prepare()
        ds = self.dataset
        self.num_chunks = self.model_params.get("num_chunks", 4)
        if self.num_chunks <= 0:
            raise ValueError("num_chunks must be positive")
        # 2-D chunk grid over the edge set: bucket edges by
        # (dst block, src block) once.
        dst, src = ds.graph.coo()
        block = int(np.ceil(ds.graph.num_vertices / self.num_chunks))
        grid_key = dst // block * self.num_chunks + src // block
        self._chunk_offsets, order = group_by(grid_key, self.num_chunks**2)
        self._dst = dst[order]
        self._src = src[order]

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        t0 = time.perf_counter()
        ds = self.dataset
        n = ds.graph.num_vertices
        h = self.feats
        for layer in self.model.layers:
            agg = None
            for chunk in range(self.num_chunks**2):
                lo = self._chunk_offsets[chunk]
                hi = self._chunk_offsets[chunk + 1]
                if lo == hi:
                    continue
                dst = self._dst[lo:hi]
                src = self._src[lo:hi]
                # One chunk's live edge state only (the memory bound);
                # SAGA-NN over the chunk, accumulated into the running
                # intermediate result.
                with self.memory.hold((hi - lo, h.shape[1]), h.dtype,
                                      "chunk edge messages"):
                    partial = scatter_add(h[src], dst, n)
                agg = partial if agg is None else agg + partial
            if agg is None:
                agg = zeros(n, h.shape[1])
            h = update(layer, h, agg)
        loss = self._train_step(h, ds.labels, ds.train_mask)
        return time.perf_counter() - t0, loss, False
