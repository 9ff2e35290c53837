"""Reduction plans — structure setup hoisted off the kernel hot path.

Every scatter/segment reduction in :mod:`repro.tensor.scatter` needs the
same handful of derived structures: per-segment offsets and counts, the
gather that brings member rows into segment order (for an unsorted
destination index, its stable-sort permutation), and a CSR reduction
matrix for the sum/mean SpMM forward, whose arrays the backward reads
again as the CSC of its transpose.  HDG topology is fixed across
epochs, so recomputing these per call is pure overhead — NeuGraph-style
topology-aware scheduling amortizes it once.

:class:`ReductionPlan` packages the precomputation for one reduction
structure.  A plan belongs to the topology it describes: each HDG holds
a :class:`PlanMemo` and builds the plan of a level the first time that
level is reduced (:meth:`repro.core.hdg.HDG.plan`), so plans live
exactly as long as their HDG — a graph edit builds a new HDG, and the
old one takes its plans with it.  :class:`PlanCache` owns no plan; it is
the process-wide *view* over the live memos (reuse counts, live entries
and bytes).

Reuse lands in the ``plan.cache.*`` obs counters, so traces and epoch
logs show when the plan layer is (or is not) amortizing.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Hashable

import numpy as np
import scipy.sparse as _sp

from ..graph.graph import group_by
from ..obs import counter as _obs_counter
from ..obs.profile import record_op

__all__ = [
    "ReductionPlan",
    "PlanMemo",
    "PlanCache",
    "get_plan_cache",
    "PLAN_HIT_COUNTER",
    "PLAN_MISS_COUNTER",
    "PLAN_BUILD_COUNTER",
]

PLAN_HIT_COUNTER = "plan.cache.hit"
PLAN_MISS_COUNTER = "plan.cache.miss"
PLAN_BUILD_COUNTER = "plan.cache.build"


class ReductionPlan:
    """Precomputed structure for one segmented reduction.

    One layout, ``(offsets, gather, num_rows)``: segment ``i`` reduces
    the value rows ``gather[offsets[i]:offsets[i + 1]]`` of a
    ``num_rows``-row value, or the contiguous rows
    ``offsets[i]:offsets[i + 1]`` when ``gather`` is ``None`` (the
    elided-Dst identity layout).  :meth:`from_segments` takes a CSR
    ``(offsets, sources)`` pair as it is; :meth:`from_index` builds one
    from a per-row destination index, with ``gather`` its stable-sort
    permutation.  SA and FA reduce over the same plans: SA gathers the
    member rows first and reduces them over :meth:`pregathered`.

    Heavy artifacts (the SpMM matrix, safe divisor vectors, the derived
    plans) are built lazily — per dtype where one applies — and memoized
    on the plan.  No plan holds a transpose: a backward multiplies by
    ``matrix(dtype).T``, the same three arrays read as CSC.
    """

    __slots__ = (
        "n", "num_rows", "total", "offsets", "counts",
        "nonempty", "starts", "gather",
        "_index", "_matrices", "_safe_counts", "_derived", "_gather_copy",
    )

    def __init__(self, offsets: np.ndarray, gather: np.ndarray | None,
                 num_rows: int, counts: np.ndarray | None = None,
                 bytes_read: int = 0) -> None:
        self.n = offsets.size - 1
        self.num_rows = int(num_rows)
        self.total = int(offsets[-1])
        self.offsets = offsets
        self.counts = np.diff(offsets) if counts is None else counts
        self.nonempty = self.counts > 0
        self.starts = offsets[:-1][self.nonempty]
        self.gather = gather
        self._index: np.ndarray | None = None
        self._matrices: dict[str, _sp.csr_matrix] = {}
        self._safe_counts: dict[str, np.ndarray] = {}
        self._derived: dict[str, ReductionPlan] = {}
        self._gather_copy: np.ndarray | None = None
        # Only these arrays exist yet, one object each: their sum is
        # what :attr:`nbytes` reports at build.
        built = (offsets, self.counts, self.nonempty, self.starts, gather)
        record_op("plan.build", bytes_read=bytes_read,
                  bytes_written=sum(a.nbytes for a in built if a is not None))

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_index(cls, index: np.ndarray, dim_size: int) -> "ReductionPlan":
        """Plan for ``scatter_*(value, index, dim_size)`` calls: row ``i``
        of the value reduces into segment ``index[i]``.  An index outside
        ``[0, dim_size)`` is a ``ValueError`` (:func:`group_by`)."""
        index = np.asarray(index)
        if index.ndim != 1:
            raise ValueError(f"scatter index must be 1-D, got shape {index.shape}")
        offsets, order = group_by(index, dim_size)
        return cls(offsets, order, index.size, bytes_read=index.nbytes)

    @classmethod
    def from_segments(cls, offsets: np.ndarray,
                      sources: np.ndarray | None,
                      num_rows: int) -> "ReductionPlan":
        """Plan for ``segment_reduce_csr(value, offsets, sources)`` calls."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0:
            raise ValueError(
                f"offsets must start at 0, got offsets[0]={int(offsets[0])}"
            )
        counts = np.diff(offsets)
        if np.any(counts < 0):
            raise ValueError("offsets must be non-decreasing")
        total = int(offsets[-1])
        num_rows = int(num_rows)
        if sources is None:
            gather = None
            if total != num_rows:
                raise ValueError(
                    f"offsets cover {total} rows but value has {num_rows}"
                )
        else:
            gather = np.asarray(sources, dtype=np.int64)
            if gather.shape[0] != total:
                raise ValueError("sources length must equal offsets[-1]")
            if gather.size and (int(gather.min()) < 0
                                or int(gather.max()) >= num_rows):
                raise ValueError(
                    f"sources must lie in [0, {num_rows})"
                )
        return cls(offsets, gather, num_rows, counts)

    # -- lazy artifacts -------------------------------------------------
    @property
    def index(self) -> np.ndarray:
        """The destination segment of each member, in segment order."""
        if self._index is None:
            self._index = np.repeat(
                np.arange(self.n, dtype=np.int64), self.counts
            )
        return self._index

    def matrix(self, dtype) -> _sp.csr_matrix:
        """``(n, num_rows)`` CSR reduction matrix: ``matrix @ value`` sums
        each segment.  Memoized per dtype."""
        key = np.dtype(dtype).str
        m = self._matrices.get(key)
        if m is None:
            if self.gather is not None:
                indices = self.gather
            else:
                indices = np.arange(self.total, dtype=np.int64)
            m = _sp.csr_matrix(
                (np.ones(self.total, dtype=dtype),
                 indices, self.offsets),
                shape=(self.n, self.num_rows),
            )
            self._matrices[key] = m
        return m

    def safe_counts(self, dtype) -> np.ndarray:
        """``max(counts, 1)`` in ``dtype`` — the mean divisor.  Computed in
        the value dtype so float32 models stay float32 end-to-end."""
        key = np.dtype(dtype).str
        c = self._safe_counts.get(key)
        if c is None:
            c = np.maximum(self.counts, 1).astype(dtype)
            self._safe_counts[key] = c
        return c

    def writable_gather(self) -> np.ndarray | None:
        """``gather`` as an array numpy's ``take`` and ``bincount`` read
        in place.  Both copy a read-only index on every call, and a plan
        over a graph's own CSC (which a flat HDG shares) has one, so such
        a gather is copied once and kept."""
        if self.gather is None or self.gather.flags.writeable:
            return self.gather
        if self._gather_copy is None:
            self._gather_copy = self.gather.copy()
        return self._gather_copy

    def _derive(self, name: str,
                build: Callable[[], "ReductionPlan"]) -> "ReductionPlan":
        plan = self._derived.get(name)
        if plan is None:
            plan = self._derived[name] = build()
        return plan

    def source_plan(self) -> "ReductionPlan | None":
        """For gathered plans: the plan over ``gather`` that sums per-member
        gradients back onto their value rows.  ``None`` for the identity
        layout (member grads map 1:1 to value rows)."""
        if self.gather is None:
            return None
        return self._derive("source", lambda: ReductionPlan.from_index(
            self.gather, self.num_rows))

    def pregathered(self) -> "ReductionPlan":
        """The same segments over rows the caller has already gathered
        into segment order (``value[plan.gather]``: SA's materialized
        messages, or members scaled by a per-edge weight) — the identity
        layout."""
        if self.gather is None:
            return self
        return self._derive("pregathered", lambda: ReductionPlan(
            self.offsets, None, self.total, self.counts))

    # -- accounting -----------------------------------------------------
    def _arrays(self, seen: dict[int, np.ndarray]) -> None:
        """Collect every array this plan keeps resident, once each: the
        derived plans and the CSR matrices share arrays with it."""
        owned = [self.offsets, self.counts, self.nonempty, self.starts,
                 self.gather, self._gather_copy, self._index,
                 *self._safe_counts.values()]
        for m in self._matrices.values():
            owned += [m.data, m.indices, m.indptr]
        seen.update((id(a), a) for a in owned if a is not None)
        for plan in self._derived.values():
            plan._arrays(seen)

    @property
    def nbytes(self) -> int:
        """Current footprint, including lazily built artifacts."""
        seen: dict[int, np.ndarray] = {}
        self._arrays(seen)
        return int(sum(a.nbytes for a in seen.values()))


class PlanMemo:
    """The plans one topology owner (an HDG) has built so far.

    Keys name the owner's own structure (level, row count), so
    there is nothing to collide with and nothing to invalidate: the memo
    dies with its owner.  Reuse and builds are reported to the
    process-wide :class:`PlanCache` view.
    """

    def __init__(self) -> None:
        self._plans: dict[Hashable, ReductionPlan] = {}

    def __reduce__(self):
        # Plans are derived structure: a pickled owner (the sub-HDG a
        # worker process is shipped) carries none and rebuilds its own.
        return (PlanMemo, ())

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], ReductionPlan]) -> ReductionPlan:
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = builder()
            _PLAN_CACHE._built(self)
        else:
            _PLAN_CACHE._reused()
        return plan

    def plans(self) -> list[ReductionPlan]:
        return list(self._plans.values())

    def clear(self) -> None:
        self._plans.clear()


class PlanCache:
    """Process-wide view over the plans live HDGs hold.

    It owns no plan and evicts nothing — a plan is freed when its HDG
    is.  ``hits`` counts reuses of a memoized plan, ``misses`` /
    ``builds`` count plans built; ``entries`` / ``bytes`` are whatever
    is alive right now.
    """

    def __init__(self) -> None:
        self._memos: weakref.WeakSet[PlanMemo] = weakref.WeakSet()
        # Serving builds plans on the batcher thread while another
        # thread reads stats(); a WeakSet must not grow mid-iteration.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.builds = 0

    def _reused(self) -> None:
        self.hits += 1
        _obs_counter(PLAN_HIT_COUNTER).add(1)

    def _built(self, memo: PlanMemo) -> None:
        with self._lock:
            self._memos.add(memo)
        self.misses += 1
        self.builds += 1
        _obs_counter(PLAN_MISS_COUNTER).add(1)
        _obs_counter(PLAN_BUILD_COUNTER).add(1)

    def _live(self) -> list[PlanMemo]:
        with self._lock:
            return list(self._memos)

    def clear(self) -> None:
        """Every live HDG forgets its plans; the next aggregation over
        each rebuilds (and counts a miss)."""
        for memo in self._live():
            memo.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        plans = [plan for memo in self._live() for plan in memo.plans()]
        return {
            "entries": len(plans),
            "bytes": sum(plan.nbytes for plan in plans),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "builds": self.builds,
        }


_PLAN_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-wide view over live reduction plans."""
    return _PLAN_CACHE
