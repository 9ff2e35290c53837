"""Versioned serving caches: per-layer embeddings and HDG blocks.

Online inference revisits the same hot seeds over and over (Zipfian
popularity), so the dominant cost saving at serve time is *not*
recomputing layer outputs that are already known.  Two caches cooperate:

* :class:`EmbeddingCache` — an LRU, byte-budgeted store of per-layer
  output rows, keyed ``(layer, vertex)``.  Graph updates evict
  *exactly* the affected vertices (per layer, hop-expanded via
  :func:`expand_affected`) so the untouched working set survives an
  update with its hit rate intact.
* :class:`HDGBlockCache` — an LRU cache of seed-restricted blocks in
  block-local coordinates (:class:`~repro.core.step.CompactBlocks`),
  each holding the reduction plans its forward built.  Block keys embed
  the graph version, so a version bump makes every stale block
  unreachable without any per-entry bookkeeping; the session clears it
  outright on update to reclaim the bytes.

Both caches report into :mod:`repro.obs` (``serve.cache.*`` counters),
so hit/miss/eviction totals show up in traces and in the ledger's
``serve.embed_hit_rate`` / ``serve.block_hit_rate`` for free.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..tensor.quant import QuantizedRows, dequantize_rows, quantize_rows, resolve_codec

__all__ = [
    "GraphVersion",
    "EmbeddingCache",
    "HDGBlockCache",
    "expand_affected",
    "block_nbytes",
]


def block_nbytes(block) -> int:
    """Recursive resident-byte accounting over every array a block holds.

    ``HDG.nbytes`` is the paper's §4.1 storage footprint and knows only
    the arrays the base class declares; a cached block also holds its
    local-coordinate mappings and the reduction plans (index arrays,
    CSR matrices) its HDG has built — arrays a flat ``block.nbytes``
    omits, so a byte-budgeted cache would admit more than its budget.
    This walks ``__slots__``/``__dict__``/containers, summing each
    distinct ndarray once.  Memory-mapped arrays count 0: their pages
    belong to the kernel, not the cache's budget.
    """
    seen: set[int] = set()
    total = 0
    stack = [block]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.memmap):
            continue
        if isinstance(obj, np.ndarray):
            if not obj.flags["OWNDATA"] and isinstance(obj.base, np.memmap):
                continue
            total += int(obj.nbytes)
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (int, float, complex, bool, str, bytes, np.dtype)):
            continue
        slots: list[str] = []
        for klass in type(obj).__mro__:
            declared = getattr(klass, "__slots__", ())
            slots.extend((declared,) if isinstance(declared, str) else declared)
        attrs = getattr(obj, "__dict__", None)
        if not slots and attrs is None:
            continue
        for name in slots:
            stack.append(getattr(obj, name, None))
        if attrs is not None:
            stack.extend(attrs.values())
    return total


class GraphVersion:
    """Monotonic counter identifying the pinned graph's current state.

    Bumped once per applied edge-change batch; the block cache keys on
    it, so a block cut from an older graph state is never looked up
    again.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def bump(self) -> int:
        with self._lock:
            self._value += 1
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GraphVersion({self._value})"


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


class HDGBlockCache:
    """LRU cache of seed-restricted blocks.

    A block is a block HDG, or the :class:`~repro.core.step.CompactBlocks`
    wrapping one in block-local coordinates (what the session stores).
    Keys are ``(layer, version, fanout, digest-of-roots)``; embedding
    the graph version means stale blocks are simply never looked up
    again after an update.  A block is sized once, when it is put —
    put it *after* its first forward, so ``max_bytes`` also covers the
    reduction plans the block owns from then on.
    """

    def __init__(self, max_bytes: int = 16 * 1024 * 1024):
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, tuple[int, object]] = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(layer: int, version: int, fanout: int | None,
             roots: np.ndarray) -> tuple:
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        return (layer, version, fanout, hash(roots.tobytes()))

    def get(self, layer: int, version: int, fanout: int | None,
            roots: np.ndarray):
        key = self._key(layer, version, fanout, roots)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            obs.counter("serve.cache.block.miss").add(1)
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.counter("serve.cache.block.hit").add(1)
        return entry[1]

    def put(self, layer: int, version: int, fanout: int | None,
            roots: np.ndarray, block) -> None:
        if self.max_bytes <= 0:
            return
        key = self._key(layer, version, fanout, roots)
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old[0]
        # Recursive accounting: a block carries arrays (mappings, plans)
        # the base HDG.nbytes does not know about, and undercounting
        # lets the cache blow past its byte budget.
        nbytes = block_nbytes(block)
        self._entries[key] = (nbytes, block)
        self.current_bytes += nbytes
        while self.current_bytes > self.max_bytes and self._entries:
            _, (stale_bytes, _) = self._entries.popitem(last=False)
            self.current_bytes -= stale_bytes
            self.evictions += 1
            obs.counter("serve.cache.block.evictions").add(1)

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
        }
