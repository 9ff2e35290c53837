"""The serving cache: per-layer embedding rows.

Online inference revisits the same hot seeds over and over (Zipfian
popularity), so the dominant cost saving at serve time is *not*
recomputing layer outputs that are already known.
:class:`EmbeddingCache` is an LRU, byte-budgeted store of per-layer
output rows, keyed ``(layer, vertex)``.  Graph updates evict *exactly*
the affected vertices (per layer, hop-expanded via
:func:`expand_affected`) so the untouched working set survives an
update with its hit rate intact.

Blocks are not cached: a request's seed-restricted block is almost
never requested twice, so the session builds it, runs it and drops it
together with the reduction plans its forward built.

The cache reports into :mod:`repro.obs` (``serve.cache.embed.*``
counters), so hit/miss/eviction totals show up in traces and in the
ledger's ``serve.embed_hit_rate`` for free.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..tensor.quant import QuantizedRows, dequantize_rows, quantize_rows, resolve_codec

__all__ = ["EmbeddingCache", "expand_affected"]


def expand_affected(hdg: HDG, vertices: np.ndarray) -> np.ndarray:
    """Roots whose neighborhood (in ``hdg``) references any of
    ``vertices`` — one hop of staleness propagation.

    If a vertex's layer-``l`` embedding went stale, every root that
    aggregates over it has a stale layer-``l+1`` embedding.  The session
    applies this map once per cached layer, so invalidation work is
    proportional to the blast radius, not the cache size.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0 or hdg.leaf_vertices.size == 0:
        return np.empty(0, dtype=np.int64)
    mask = np.isin(hdg.leaf_vertices, vertices)
    if not mask.any():
        return np.empty(0, dtype=np.int64)
    owners = hdg.root_of_leaf_edges()[mask]
    return np.unique(hdg.roots[np.unique(owners)])


class EmbeddingCache:
    """LRU, byte-budgeted store of per-layer embedding rows.

    Parameters
    ----------
    max_bytes:
        Byte budget across all layers; least-recently-used rows are
        evicted once exceeded.  ``0`` disables caching (every lookup
        misses, stores are dropped).
    store_dtype:
        ``None`` (default) keeps rows exactly as computed.  ``"float32"``
        / ``"float16"`` / ``"int8"`` store rows in that codec and decode
        on hit (int8 is per-row symmetric with one float32 scale per
        entry), so the same byte budget holds ~4×–8× the vertices — the
        direct warm-hit-rate lever under Zipfian request popularity.
        Decoded rows come back in the dtype rows were first stored in;
        int8 hits carry the codec's documented ``max|row|/254`` error.
        Encoding and decoding are :mod:`repro.tensor.quant`'s, one call
        per stored batch and per lookup.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 store_dtype: str | None = None):
        self.max_bytes = int(max_bytes)
        self.store_dtype = None if store_dtype is None else resolve_codec(store_dtype)
        self._out_dtype: np.dtype | None = None
        self._entries: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def _encode(self, rows) -> tuple[list[np.ndarray], list]:
        """(payloads, scales): the stored form of a batch of rows, one
        ``quantize_rows`` call for the whole batch."""
        rows = np.asarray(rows)
        if self._out_dtype is None:
            self._out_dtype = (rows.dtype if rows.dtype.kind == "f"
                               else np.dtype(np.float32))
        q = quantize_rows(rows, self.store_dtype)
        # Per-row copies: a view would pin the whole batch's codes.
        payloads = [codes.copy() for codes in q.codes]
        scales = list(q.scales) if q.scales is not None else [None] * len(payloads)
        return payloads, scales

    def _decode(self, payloads: list, scales: list) -> list:
        """Decode the hit rows of one lookup with one codec call."""
        if not payloads:
            return []
        q = QuantizedRows(self.store_dtype, np.stack(payloads),
                          np.array(scales, dtype=np.float32)
                          if self.store_dtype == "int8" else None)
        return list(dequantize_rows(q, out_dtype=self._out_dtype))

    @staticmethod
    def _entry_nbytes(entry: tuple) -> int:
        # int8 entries pay for their float32 scale sidecar.
        return int(entry[0].nbytes) + (4 if entry[1] is not None else 0)

    def lookup(self, layer: int, vertices: np.ndarray) -> tuple[np.ndarray, list]:
        """``(hit_mask, rows)``: per-vertex hit flags and the hit rows
        (aligned with ``vertices[hit_mask]``), decoded on hit when the
        cache stores a quantized dtype."""
        vertices = np.asarray(vertices, dtype=np.int64)
        hit_mask = np.zeros(vertices.size, dtype=bool)
        rows: list[np.ndarray] = []
        scales: list = []
        for i, v in enumerate(vertices.tolist()):
            entry = self._entries.get((layer, v))
            if entry is not None:
                self._entries.move_to_end((layer, v))
                hit_mask[i] = True
                rows.append(entry[0])
                scales.append(entry[1])
        hits = int(hit_mask.sum())
        misses = vertices.size - hits
        self.hits += hits
        self.misses += misses
        obs.counter("serve.cache.embed.hit").add(hits)
        obs.counter("serve.cache.embed.miss").add(misses)
        if self.store_dtype is not None:
            rows = self._decode(rows, scales)
        return hit_mask, rows

    def store(self, layer: int, vertices: np.ndarray, rows: np.ndarray,
              version: int | None = None) -> None:
        """Insert one row per vertex; evict LRU entries beyond the byte
        budget.

        No entry carries a graph version — a graph update evicts the
        stale rows (:meth:`invalidate`) — so ``version`` is ignored; it
        is still accepted because the performance ledger's serve probe
        passes one.
        """
        if self.max_bytes <= 0:
            return
        vertices = np.asarray(vertices, dtype=np.int64)
        if self.store_dtype is None:
            payloads = [np.ascontiguousarray(rows[i]) for i in range(vertices.size)]
            scales = [None] * vertices.size
        else:
            payloads, scales = self._encode(rows) if vertices.size else ([], [])
        for v, payload, scale in zip(vertices.tolist(), payloads, scales):
            key = (layer, v)
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= self._entry_nbytes(old)
            entry = (payload, scale)
            self._entries[key] = entry
            self.current_bytes += self._entry_nbytes(entry)
        while self.current_bytes > self.max_bytes and self._entries:
            _, stale = self._entries.popitem(last=False)
            self.current_bytes -= self._entry_nbytes(stale)
            self.evictions += 1
            obs.counter("serve.cache.embed.evictions").add(1)

    def invalidate(self, vertices: np.ndarray, layer: int) -> int:
        """Evict the given vertices' rows at one layer; returns count."""
        evicted = 0
        for v in np.asarray(vertices, dtype=np.int64).tolist():
            entry = self._entries.pop((layer, v), None)
            if entry is not None:
                self.current_bytes -= self._entry_nbytes(entry)
                evicted += 1
        self.invalidations += evicted
        if evicted:
            obs.counter("serve.cache.embed.invalidations").add(evicted)
        return evicted

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "store_dtype": self.store_dtype or "exact",
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
