"""Inference sessions: checkpoint + pinned graph -> seed-restricted
``predict``/``embed``.

A session is the serve-time counterpart of
:class:`~repro.core.engine.FlexGraphEngine`: instead of a full-graph
forward per call it computes, per request, only the seed-restricted
blocks (the same block forward sampled mini-batch training uses —
:func:`repro.core.step.build_block`, relabeled into block-local
coordinates by :func:`repro.core.step.compact_blocks`, so a request
touches O(block) rows, never O(graph)), and it fills every layer's
outputs through the :class:`~repro.serve.cache.EmbeddingCache` so hot
vertices are never recomputed.  A block, and the reduction plans its
forward builds, live only as long as the request: a seed set is almost
never requested twice, so there is no block cache.

Exactness: with ``fanouts=None`` (the default) blocks keep full
neighborhoods, so responses are numerically identical to a full-graph
``engine.predict``/``embed`` over the same pinned HDG.  INFA models can
opt into per-request fan-out sampling (``fanouts=[k, ...]``) to bound
tail latency at the cost of exactness — cached rows then memoize the
first sample drawn for a vertex.

Dynamic graphs: :meth:`InferenceSession.apply_edge_changes` evolves the
pinned graph, lets the model repair its HDG
(:meth:`~repro.core.nau.NAUModel.reselect`), and evicts exactly the
affected vertices per layer (hop-expanded from the roots the repair
touched).
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import ModelHDGs, build_block, compact_blocks
from ..graph.graph import Graph
from ..loader.source import as_source
from ..storage.store import load_checkpoint
from ..tensor.nn import as_param_dtype, param_dtype
from ..tensor.plans import get_plan_cache
from ..tensor.tensor import Tensor, no_grad
from .cache import EmbeddingCache, expand_affected

__all__ = ["InferenceSession", "CheckpointMismatch"]


class CheckpointMismatch(ValueError):
    """The checkpoint's metadata contradicts the session's model/graph."""


class InferenceSession:
    """Online inference over a pinned (model, graph, features) triple.

    Parameters
    ----------
    model:
        The NAU model to serve (its parameters are overwritten when a
        ``checkpoint`` is given).  Kept in eval mode for the session's
        lifetime.
    graph:
        The pinned input graph.
    features:
        ``(num_vertices, feat_dim)`` input features: an array, pinned
        exactly, or a :class:`~repro.loader.DataSource`, pinned in the
        codec it was built with.  The embedding cache stores rows in
        that codec too (``source.codec``).
    checkpoint:
        Optional path to a ``save_checkpoint`` artifact; metadata written
        by :func:`repro.storage.checkpoint_metadata` is verified (model
        class, layer dims, graph fingerprint) before the state is loaded.
    hdg:
        Optional pre-built model-level HDG to pin (e.g. the exact HDG a
        training engine used); default builds one via the model's
        NeighborSelection.
    fanouts:
        Per-layer fan-out budgets for sampled (approximate) serving;
        ``None`` entries (or ``fanouts=None``) keep exact neighborhoods.
    embed_cache_bytes:
        Byte budget of the embedding cache.  Exact rows are stored in
        the model's parameter dtype, 4 bytes per element for the
        float32 default: a 64-wide row costs 256 bytes, so 64 MiB holds
        ~262k of them; an int8 cache holds ~4× as many.
    """

    def __init__(
        self,
        model: NAUModel,
        graph: Graph,
        features,
        *,
        checkpoint: str | None = None,
        hdg: HDG | None = None,
        fanouts: list[int | None] | None = None,
        strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
        seed: int = 0,
        embed_cache_bytes: int = 64 * 1024 * 1024,
    ):
        self.model = model
        self.graph = graph
        self.strategy = ExecutionStrategy.parse(strategy)
        self._source = as_source(features)
        if self._source.num_vertices != graph.num_vertices:
            raise ValueError("features must cover every vertex of the graph")
        if fanouts is not None and len(fanouts) != model.num_layers:
            raise ValueError(
                f"need one fanout per layer ({model.num_layers}), got {len(fanouts)}"
            )
        self.fanouts = list(fanouts) if fanouts is not None else [None] * model.num_layers
        self._rng = np.random.default_rng(seed)
        self._lock = threading.RLock()

        if checkpoint is not None:
            self.load_checkpoint(checkpoint)
        self.model.eval()

        self._hdgs = ModelHDGs(model, graph, self._rng)
        self._pin(hdg)

        self.embed_cache = EmbeddingCache(embed_cache_bytes,
                                          store_dtype=self._source.codec)
        self._blocks_built = 0

    # ------------------------------------------------------------------
    # Checkpoint loading (with round-trip verification)
    # ------------------------------------------------------------------
    def load_checkpoint(self, path: str) -> dict:
        """Load model parameters from ``path`` after verifying metadata.

        Raises :class:`CheckpointMismatch` when the stored model class,
        layer dims or graph fingerprint contradict this session's model
        and pinned graph.  Returns the checkpoint metadata.
        """
        state, meta = load_checkpoint(path)
        stored_class = meta.get("model_class")
        if stored_class is not None and stored_class != type(self.model).__name__:
            raise CheckpointMismatch(
                f"{path}: checkpoint was saved from model class "
                f"{stored_class!r}, session model is "
                f"{type(self.model).__name__!r}"
            )
        stored_dims = meta.get("layer_dims")
        own_dims = [int(layer.output_dim) for layer in self.model.layers]
        if stored_dims is not None and list(stored_dims) != own_dims:
            raise CheckpointMismatch(
                f"{path}: checkpoint layer dims {stored_dims} do not match "
                f"the session model's {own_dims}"
            )
        stored_fp = meta.get("graph_fingerprint")
        if stored_fp is not None:
            own_fp = self.graph.fingerprint()
            if stored_fp != own_fp:
                raise CheckpointMismatch(
                    f"{path}: checkpoint graph fingerprint {stored_fp} does "
                    f"not match the pinned graph's {own_fp} — the model was "
                    f"trained on a different graph; rebuild the session with "
                    f"the training graph or re-train"
                )
        self.model.load_state_dict(state)
        return meta

    @property
    def hdg(self) -> HDG:
        """The pinned model-level HDG requests are served from."""
        return self._hdgs.model_hdg

    def _pin(self, hdg: HDG | None) -> None:
        """Pin ``hdg`` (or, when ``None``, one freshly built by the
        model's NeighborSelection); :class:`ModelHDGs` checks blocks can
        be cut from it."""
        if hdg is not None:
            self._hdgs.pin(hdg)
        self._hdgs.model_level()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return self.model.num_layers

    def embed(self, seeds: np.ndarray) -> np.ndarray:
        """Final-layer rows for ``seeds`` (logits for classifier heads)."""
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        if seeds.size == 0:
            return np.empty((0, self.model.layers[-1].output_dim),
                            dtype=param_dtype(self.model))
        if seeds.min() < 0 or seeds.max() >= self.graph.num_vertices:
            raise ValueError("seed vertex id out of range")
        with self._lock:
            uniq, inverse = np.unique(seeds, return_inverse=True)
            rows = self._rows(self.num_layers, uniq)
            return rows[inverse]

    def predict(self, seeds: np.ndarray) -> np.ndarray:
        """Argmax class predictions for ``seeds``."""
        return self.embed(seeds).argmax(axis=1)

    def _rows(self, level: int, vertices: np.ndarray) -> np.ndarray:
        """Level-``level`` output rows for ``vertices`` (level 0 = input
        features), served from cache where possible."""
        if level == 0:
            return self._source.gather_features(vertices)
        hit_mask, hit_rows = self.embed_cache.lookup(level, vertices)
        missing = vertices[~hit_mask]
        computed: np.ndarray | None = None
        if missing.size:
            computed = self._compute(level, missing)
            self.embed_cache.store(level, missing, computed)
        dim = (computed.shape[1] if computed is not None else hit_rows[0].shape[0])
        dtype = computed.dtype if computed is not None else hit_rows[0].dtype
        result = np.empty((vertices.size, dim), dtype=dtype)
        if hit_rows:
            result[hit_mask] = np.stack(hit_rows)
        if computed is not None:
            result[~hit_mask] = computed
        return result

    def _compute(self, level: int, roots: np.ndarray) -> np.ndarray:
        """Layer ``level``'s output rows for ``roots``: one block forward
        in block-local coordinates over the rows the block references."""
        block = build_block(self.hdg, roots, self.fanouts[level - 1], self._rng)
        compact = compact_blocks([(block, roots)], roots)
        self._blocks_built += 1
        (local_block, out_local), = compact.blocks
        prev_rows = self._rows(level - 1, compact.input_vertices)
        with no_grad():
            out = self.model.layers[level - 1].forward(
                Tensor(as_param_dtype(self.model, prev_rows)), local_block,
                self.strategy, rows=out_local)
        return out.numpy()

    # ------------------------------------------------------------------
    # Dynamic graph updates + targeted invalidation
    # ------------------------------------------------------------------
    def apply_edge_changes(
        self,
        added: np.ndarray | None = None,
        removed: np.ndarray | None = None,
    ) -> int:
        """Evolve the pinned graph and invalidate exactly what went stale.

        Returns the number of embedding-cache rows evicted.  The model
        repairs its HDG (:meth:`~repro.core.nau.NAUModel.reselect`) and
        the roots it touched seed the eviction; a model whose selection
        is opaque (``None``) is selected again and the cache flushed.
        """
        added_arr = (
            np.empty((0, 2), dtype=np.int64) if added is None
            else np.asarray(added, dtype=np.int64).reshape(-1, 2)
        )
        removed_arr = (
            np.empty((0, 2), dtype=np.int64) if removed is None
            else np.asarray(removed, dtype=np.int64).reshape(-1, 2)
        )
        with self._lock:
            graph = self.graph
            if removed_arr.size:
                graph = graph.with_edges_removed(removed_arr)
            if added_arr.size:
                graph = graph.with_edges_added(added_arr)
            repaired = self.model.reselect(
                self.hdg, graph, np.concatenate([added_arr, removed_arr]))
            hdg, touched = (None, None) if repaired is None else repaired
            self.graph = graph
            self._hdgs = ModelHDGs(self.model, graph, self._rng)
            self._pin(hdg)
            if touched is None:
                evicted = len(self.embed_cache)
                self.embed_cache.clear()
                return evicted
            return self._invalidate(touched)

    def _invalidate(self, touched: np.ndarray) -> int:
        """Evict per-layer entries for ``touched`` roots, hop-expanding
        the affected set one layer at a time over the *new* HDG."""
        affected = np.unique(np.asarray(touched, dtype=np.int64))
        evicted = 0
        for level in range(1, self.num_layers + 1):
            if affected.size == 0:
                break
            evicted += self.embed_cache.invalidate(affected, level)
            if level < self.num_layers:
                affected = np.union1d(
                    affected, expand_affected(self.hdg, affected)
                )
        return evicted

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        # No block is ever reused, so "block_cache" counts every block
        # built as a miss: the ledger's serve.block_hit_rate still reads
        # it.  "plan_cache" is the process-wide view (training and
        # serving share it); a block's plans die with its request.
        return {
            "embed_cache": self.embed_cache.stats(),
            "block_cache": {"hits": 0, "misses": self._blocks_built},
            "plan_cache": get_plan_cache().stats(),
        }
