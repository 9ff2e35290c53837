"""SAGA-NN abstraction and the DGL / DistDGL baseline engines.

SAGA-NN (NeuGraph) splits a GNN layer into Scatter, ApplyEdge, Gather and
ApplyVertex — the GAS-like abstraction DGL, PyG, NeuGraph and Euler adopt
(§2.3).  :class:`SAGANNLayer` is a faithful rendering of the abstraction;
:class:`DGLEngine` executes it with DGL's kernel-fusion optimization
(skip edge materialization when ApplyEdge is trivial, reduce straight
from a gathered view), and :class:`DistDGLEngine` adds DistDGL's
mini-batch full-k-hop-neighborhood training loop.

Neither can express MAGNN — hierarchical aggregation over metapath
instances is outside the 1-hop flat abstraction (Table 2's "X" cells) —
and both fall back to walk *simulation* for PinSage.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.nau import GNNLayer
from ..graph.graph import Graph, range_positions
from ..tensor.nn import as_param_dtype
from ..tensor.scatter import scatter_add
from ..tensor.tensor import Tensor
from .common import BaselineEngine, update
from .walk_sim import propagation_random_walks, top_k_from_visits

__all__ = ["SAGANNLayer", "DGLEngine", "DistDGLEngine"]


class SAGANNLayer:
    """The 4-stage SAGA-NN abstraction for one GNN layer.

    Users override ``apply_edge`` / ``gather_reduce`` / ``apply_vertex``;
    ``run`` executes the stages over a COO edge index.  ``fuse_kernels``
    skips the explicit edge materialization when ``apply_edge`` is the
    identity — DGL's kernel-fusion optimization.
    """

    def __init__(self, fuse_kernels: bool = True):
        self.fuse_kernels = fuse_kernels

    def scatter(self, feats: Tensor, src: np.ndarray) -> Tensor:
        """Stage 1: send vertex features along out-edges."""
        return feats[src]

    def apply_edge(self, edge_feats: Tensor) -> Tensor:
        """Stage 2: per-edge NN op (identity by default)."""
        return edge_feats

    def gather_reduce(self, edge_feats: Tensor, dst: np.ndarray, n: int) -> Tensor:
        """Stage 3: reduce incoming edge features per vertex."""
        return scatter_add(edge_feats, dst, n)

    def apply_vertex(self, feats: Tensor, agg: Tensor) -> Tensor:
        """Stage 4: the Update NN op."""
        raise NotImplementedError

    def run(self, feats: Tensor, src: np.ndarray, dst: np.ndarray, n: int) -> Tensor:
        edge_feats = self.scatter(feats, src)
        if not self.fuse_kernels:
            edge_feats = self.apply_edge(edge_feats)
        agg = self.gather_reduce(edge_feats, dst, n)
        return self.apply_vertex(feats, agg)


class _ModelSAGALayer(SAGANNLayer):
    """SAGA-NN layer whose ApplyVertex is a model layer's own Update."""

    def __init__(self, layer: GNNLayer, fuse_kernels: bool = True):
        super().__init__(fuse_kernels)
        self.layer = layer

    def apply_vertex(self, feats: Tensor, agg: Tensor) -> Tensor:
        return update(self.layer, feats, agg)


class DGLEngine(BaselineEngine):
    """Full-graph GAS execution with kernel fusion (the DGL column)."""

    name = "dgl"
    supported_models = ("gcn", "pinsage")
    #: edge temporaries per walk-simulation hop (DGL fuses to one).
    walk_edge_temporaries = 1

    def _prepare(self) -> None:
        super()._prepare()
        self.saga_layers = [_ModelSAGALayer(layer) for layer in self.model.layers]
        self._dst, self._src = self.dataset.graph.coo()

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        t0 = time.perf_counter()
        if self.model_name == "gcn":
            loss = self._gcn_epoch()
        else:
            loss = self._pinsage_epoch()
        return time.perf_counter() - t0, loss, False

    def _gcn_epoch(self) -> float:
        ds = self.dataset
        h = self.feats
        n = ds.graph.num_vertices
        for layer_obj in self.saga_layers:
            # Fused kernel still gathers one (E, dim) view for the reduce.
            with self.memory.hold((self._src.size, h.shape[1]), h.dtype,
                                  "gathered edge view"):
                h = layer_obj.run(h, self._src, self._dst, n)
        return self._train_step(h, ds.labels, ds.train_mask)

    def _pinsage_epoch(self) -> float:
        ds, model = self.dataset, self.model
        roots, visited = propagation_random_walks(
            ds.graph, model.num_traces, model.n_hops, self._rng, self.memory,
            edge_temporaries=self.walk_edge_temporaries,
        )
        owners, nbrs, weights = top_k_from_visits(
            roots, visited, ds.graph.num_vertices, model.top_k
        )
        return self._weighted_flat_epoch(owners, nbrs, weights)


class DistDGLEngine(DGLEngine):
    """DistDGL: DGL's model math with mini-batch k-hop-neighborhood
    training (the strategy §7.1 blames for GCN's collapse on dense and
    power-law graphs).

    For a k-layer GCN each batch first gathers the *full* neighborhood
    within k hops of its seed vertices and rebuilds it as a subgraph;
    per-batch cost approaches full-graph cost on dense graphs.  PinSage
    inherits DGL's implementation (the paper measures them equal).
    """

    name = "distdgl"
    supported_models = ("gcn", "pinsage")

    def _prepare(self) -> None:
        super()._prepare()
        self.batch_size = self.model_params.get("batch_size", 64)
        self.max_batches = self.model_params.get("max_batches", 4)

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        if self.model_name == "pinsage":
            return super()._run_epoch(epoch)
        return self._minibatch_gcn_epoch(dedup=True)

    def _minibatch_gcn_epoch(self, dedup: bool) -> tuple[float, float | None, bool]:
        """Shared mini-batch loop (also used by the Euler engine).

        Measures ``max_batches`` batches and extrapolates to the full
        epoch; charges memory per batch for the expanded neighborhoods
        (deduplicated for DistDGL, per-sample-duplicated for Euler).
        """
        ds = self.dataset
        graph: Graph = ds.graph
        n = graph.num_vertices
        num_hops = self.model.num_layers
        seeds_all = self._rng.permutation(n)
        num_batches = int(np.ceil(n / self.batch_size))
        measured = min(num_batches, self.max_batches) if self.max_batches else num_batches
        t0 = time.perf_counter()
        loss = None
        for b in range(measured):
            seeds = seeds_all[b * self.batch_size : (b + 1) * self.batch_size]
            block = self._expand_k_hop(graph, seeds, num_hops)
            dup_size = 0 if dedup else self._duplicated_expansion_size(
                graph, seeds, num_hops
            )
            with self.memory.hold((dup_size, ds.feat_dim), self.feats.dtype,
                                  "per-sample neighborhoods"), \
                 self.memory.hold((block.size, ds.feat_dim), self.feats.dtype,
                                  "batch subgraph features"):
                sub, original = graph.subgraph(block)
                h = Tensor(as_param_dtype(self.model, ds.features[original]))
                dst, src = sub.coo()
                for layer_obj in self.saga_layers:
                    h = layer_obj.run(h, src, dst, sub.num_vertices)
                # Loss over the seed rows only (they are the batch targets).
                local_of = {int(v): i for i, v in enumerate(original)}
                seed_rows = np.array([local_of[int(s)] for s in seeds])
                loss = self._train_step(h[seed_rows], ds.labels[seeds], None)
        elapsed = time.perf_counter() - t0
        extrapolated = measured < num_batches
        total = elapsed * num_batches / max(measured, 1)
        return total, loss, extrapolated

    @staticmethod
    def _expand_k_hop(graph: Graph, seeds: np.ndarray, k: int) -> np.ndarray:
        """Union of the full k-hop in-neighborhood of the seeds."""
        block = np.unique(seeds)
        frontier = block
        indptr, indices = graph.csc
        for _ in range(k):
            counts = indptr[frontier + 1] - indptr[frontier]
            if counts.sum() == 0:
                break
            nbrs = indices[range_positions(indptr[frontier], counts)]
            frontier = np.setdiff1d(nbrs, block)
            block = np.union1d(block, frontier)
        return block

    @staticmethod
    def _duplicated_expansion_size(graph: Graph, seeds: np.ndarray, k: int) -> int:
        """Sum of per-sample neighborhood sizes *with duplication* — what a
        per-sample sampler materializes before any dedup (k == 2 path)."""
        in_deg = graph.in_degree()
        indptr, indices = graph.csc
        sizes = in_deg[seeds].astype(np.int64)
        if k >= 2:
            # Second-hop duplicated size per seed: sum of neighbor degrees.
            second = np.array(
                [int(in_deg[indices[indptr[s] : indptr[s + 1]]].sum()) for s in seeds],
                dtype=np.int64,
            )
            sizes = sizes + second
        return int(sizes.sum())
