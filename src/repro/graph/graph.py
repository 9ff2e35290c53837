"""Immutable directed graph in CSR/CSC form — the graph-engine substrate.

FlexGraph integrates libgrape-lite (a C++ parallel graph-processing
library) for storing graphs and running graph-related operations (random
walks, metapath matching, BFS).  This module is the Python/numpy
equivalent: a compact adjacency structure with both out-edge (CSR) and
in-edge (CSC) indexes, typed vertices for heterogeneous graphs, and the
memory accounting needed by the HDG-footprint experiment (Table 5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Graph", "group_by", "range_positions"]

#: edges :meth:`Graph.fingerprint` sorts and hashes per step
FINGERPRINT_CHUNK = 1 << 20


class Graph:
    """A directed graph over vertices ``0..n-1`` stored as CSR + CSC.

    Parameters
    ----------
    num_vertices:
        Number of vertices.
    src, dst:
        Parallel int arrays of edge endpoints (edge ``i`` is
        ``src[i] -> dst[i]``).
    vertex_types:
        Optional ``(num_vertices,)`` int array of type ids for
        heterogeneous graphs (MAGNN); defaults to a single type ``0``.
    type_names:
        Optional human-readable names aligned with type ids; when given,
        ``num_types`` is their count.

    The adjacency arrays and ``vertex_types`` are read-only views: a
    GCN's HDG shares the CSC (:func:`~repro.core.hdg.hdg_from_graph`),
    and an edit builds a new graph.
    """

    def __init__(
        self,
        num_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        vertex_types: np.ndarray | None = None,
        type_names: list[str] | None = None,
    ):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if num_vertices <= 0:
            raise ValueError("graph must have at least one vertex")
        _check_endpoints(src, dst, num_vertices)
        self._adopt(num_vertices, _compress(src, dst, num_vertices),
                    _compress(dst, src, num_vertices),
                    _checked_types(vertex_types, num_vertices), type_names)

    @classmethod
    def from_adjacency(
        cls,
        num_vertices: int,
        csr: tuple[np.ndarray, np.ndarray],
        csc: tuple[np.ndarray, np.ndarray],
        vertex_types: np.ndarray | None = None,
        type_names: list[str] | None = None,
    ) -> "Graph":
        """A graph over prebuilt CSR and CSC ``(indptr, indices)`` pairs,
        adopted without copying: a memory-mapped pair stays a memmap.

        The pairs are trusted to hold the same edges, and nothing here
        reads them in full; with ``type_names`` given, neither is
        ``vertex_types`` read.
        """
        graph = cls.__new__(cls)
        graph._adopt(num_vertices, csr, csc, vertex_types, type_names)
        return graph

    def _adopt(self, num_vertices, csr, csc, vertex_types, type_names) -> None:
        self.num_vertices = int(num_vertices)
        self._csr_indptr, self._csr_indices = map(_read_only, csr)
        self._csc_indptr, self._csc_indices = map(_read_only, csc)
        self.num_edges = int(self._csr_indices.size)
        if vertex_types is None:
            vertex_types = np.zeros(self.num_vertices, dtype=np.int64)
        self.vertex_types = _read_only(vertex_types)
        # Named types are counted by their names, in every tier.
        self.num_types = (len(type_names) if type_names
                          else int(self.vertex_types.max()) + 1)
        self.type_names = type_names or [f"type{i}" for i in range(self.num_types)]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges,
        vertex_types: np.ndarray | None = None,
        type_names: list[str] | None = None,
        make_undirected: bool = False,
    ) -> "Graph":
        """Build a graph from an ``(m, 2)`` edge array or list of pairs.

        ``make_undirected`` adds the reverse of every edge (GCN and PinSage
        treat their input graphs as undirected).
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
        src, dst = edges[:, 0], edges[:, 1]
        if make_undirected:
            src = np.concatenate([src, dst])
            dst = np.concatenate([dst, edges[:, 0]])
        return cls(num_vertices, src, dst, vertex_types, type_names)

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighborhood of ``v`` as an int array (a view, do not mutate)."""
        return self._csr_indices[self._csr_indptr[v] : self._csr_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighborhood of ``v`` as an int array (a view, do not mutate)."""
        return self._csc_indices[self._csc_indptr[v] : self._csc_indptr[v + 1]]

    def out_degree(self, v: int | None = None):
        """Out-degree of ``v``, or the full out-degree array when ``v`` is None."""
        if v is None:
            return np.diff(self._csr_indptr)
        return int(self._csr_indptr[v + 1] - self._csr_indptr[v])

    def in_degree(self, v: int | None = None):
        """In-degree of ``v``, or the full in-degree array when ``v`` is None."""
        if v is None:
            return np.diff(self._csc_indptr)
        return int(self._csc_indptr[v + 1] - self._csc_indptr[v])

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) over out-edges."""
        return self._csr_indptr, self._csr_indices

    @property
    def csc(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) over in-edges."""
        return self._csc_indptr, self._csc_indices

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) arrays in CSR order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degree())
        return src, np.array(self._csr_indices)

    def coo(self) -> tuple[np.ndarray, np.ndarray]:
        """COO (dst_ids, src_ids) in CSC order — the layout Figure 7 uses."""
        dst = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.in_degree())
        return dst, np.array(self._csc_indices)

    def vertices_of_type(self, type_id: int) -> np.ndarray:
        """All vertex ids of the given type."""
        return np.flatnonzero(self.vertex_types == type_id)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices relabeled ``0..k-1`` in the
        order given) and the original-id array so callers can map back.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size != np.unique(vertices).size:
            raise ValueError("subgraph vertices must be unique")
        local = np.full(self.num_vertices, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        src, dst = self.edges()
        keep = (local[src] >= 0) & (local[dst] >= 0)
        sub = Graph(
            max(int(vertices.size), 1),
            local[src[keep]],
            local[dst[keep]],
            self.vertex_types[vertices] if vertices.size else None,
            self.type_names,
        )
        return sub, vertices

    def with_vertex_types(self, vertex_types: np.ndarray,
                          type_names: list[str] | None = None) -> "Graph":
        """A copy of this graph with new vertex types (shares adjacency).

        The evaluation runs MAGNN on homogeneous graphs by assigning 3
        vertex types (Section 7, "the input graph consists of 3 types of
        vertices"); this is the hook for that retyping.
        """
        return Graph.from_adjacency(
            self.num_vertices, self.csr, self.csc,
            _checked_types(vertex_types, self.num_vertices), type_names)

    def reverse(self) -> "Graph":
        """Graph with all edges flipped."""
        src, dst = self.edges()
        return Graph(self.num_vertices, dst, src, self.vertex_types, self.type_names)

    def with_edges_added(self, edges) -> "Graph":
        """A new graph with extra edges (dynamic-graph evolution step).

        Adjacency indexes are rebuilt (CSR/CSC are immutable); vertex
        types carry over.  Edge endpoints must already be valid ids.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src, dst = self.edges()
        return Graph(
            self.num_vertices,
            np.concatenate([src, edges[:, 0]]),
            np.concatenate([dst, edges[:, 1]]),
            self.vertex_types,
            self.type_names,
        )

    def with_edges_removed(self, edges) -> "Graph":
        """A new graph with the given directed edges removed.

        Each listed ``(u, v)`` removes *one* occurrence of that edge, the
        first in CSR order not yet removed (multi-edges lose one copy per
        mention); absent edges are ignored.  An endpoint outside the
        graph raises the ``ValueError`` :meth:`with_edges_added` does.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        _check_endpoints(edges[:, 0], edges[:, 1], self.num_vertices)
        src, dst = self.edges()
        key = src * self.num_vertices + dst
        remove_key, quota = np.unique(
            edges[:, 0] * self.num_vertices + edges[:, 1], return_counts=True)
        # Rank each listed edge's copies in CSR order; the first `quota`
        # copies go.
        hits = np.flatnonzero(np.isin(key, remove_key))
        order = np.argsort(key[hits], kind="stable")
        hit_keys = key[hits][order]
        rank = np.arange(hit_keys.size) - np.searchsorted(hit_keys, hit_keys)
        drop = rank < quota[np.searchsorted(remove_key, hit_keys)]
        keep = np.ones(key.size, dtype=bool)
        keep[hits[order[drop]]] = False
        return Graph(
            self.num_vertices, src[keep], dst[keep],
            self.vertex_types, self.type_names,
        )

    def fingerprint(self) -> str:
        """Stable hex digest of the graph's structure.

        Covers vertex count, the *sorted* edge multiset and vertex types
        — independent of the order edges were supplied in, and of
        whether the arrays live in RAM or in memory-mapped files — so a
        checkpoint stamped with a fingerprint can later verify it is
        being served against the same graph (``repro.serve``).

        The edge keys ``src * n + dst`` are hashed in chunks of about
        :data:`FINGERPRINT_CHUNK` edges cut at CSR row boundaries.  Every
        key of a row is smaller than every key of a later row, so the
        sorted chunks concatenate to the one-shot sort, and no temporary
        is edge-sized.
        """
        import hashlib

        n = self.num_vertices
        indptr, indices = self.csr
        h = hashlib.sha256()
        h.update(np.int64(n).tobytes())
        row = 0
        while row < n:
            end = int(np.searchsorted(indptr, indptr[row] + FINGERPRINT_CHUNK,
                                      side="right")) - 1
            end = min(max(end, row + 1), n)
            src = np.repeat(np.arange(row, end, dtype=np.int64),
                            np.diff(indptr[row:end + 1]))
            keys = src * np.int64(n) + indices[indptr[row]:indptr[end]]
            keys.sort()
            h.update(keys.tobytes())
            row = end
        h.update(self.vertex_types.tobytes())
        return h.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the adjacency structure (CSR + CSC + types)."""
        return int(
            self._csr_indptr.nbytes
            + self._csr_indices.nbytes
            + self._csc_indptr.nbytes
            + self._csc_indices.nbytes
            + self.vertex_types.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"Graph(num_vertices={self.num_vertices}, num_edges={self.num_edges}, "
            f"num_types={self.num_types})"
        )


def _compress(key: np.ndarray, val: np.ndarray,
              num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the edges ``key -> val`` grouped by
    ``key``, each group in edge order."""
    indptr, order = group_by(key, num_vertices)
    return indptr, val[order]


def group_by(key, num_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Group positions by a bounded id: ``(offsets, order)``.

    Key ``k``'s positions are ``order[offsets[k]:offsets[k + 1]]``, and
    ``order`` is exactly ``np.argsort(key, kind="stable")``: one stable
    pass (ids below ``2**16``) or two (below ``2**32``) over ``uint16``
    digits, which numpy sorts by radix in linear time.  A key outside
    ``[0, num_keys)`` raises ``ValueError`` before any digit is cast.
    """
    key = np.asarray(key)
    num_keys = int(num_keys)
    counts = np.bincount(key, minlength=num_keys)  # negatives raise here
    if counts.size != num_keys:
        raise ValueError(f"group_by key {counts.size - 1} is out of range "
                         f"for {num_keys} keys")
    offsets = np.zeros(num_keys + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if num_keys > 1 << 32:
        return offsets, np.argsort(key, kind="stable")
    order = np.argsort(key.astype(np.uint16, copy=False), kind="stable")
    if num_keys > 1 << 16:
        high = np.right_shift(key, 16, out=np.empty(key.shape, np.uint16),
                              casting="unsafe")
        order = order[np.argsort(high[order], kind="stable")]
    return offsets, order


def range_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat positions of the ranges ``[starts[i], starts[i] + counts[i])``.

    Range after range, in order: indexing with them gathers the CSR/CSC
    rows or the HDG groups of a set of owners in one step."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


def _checked_types(vertex_types, num_vertices: int) -> np.ndarray | None:
    """``vertex_types`` as int64 after the shape and sign checks."""
    if vertex_types is None:
        return None
    vertex_types = np.asarray(vertex_types, dtype=np.int64)
    if vertex_types.shape != (num_vertices,):
        raise ValueError("vertex_types must have shape (num_vertices,)")
    if vertex_types.size and vertex_types.min() < 0:
        raise ValueError("vertex types must be non-negative")
    return vertex_types


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only int64 view of ``arr`` (a memmap stays a memmap); the
    caller's own array keeps its flags."""
    view = np.asanyarray(arr, dtype=np.int64).view()
    view.flags.writeable = False
    return view


def _check_endpoints(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> None:
    if src.size and (src.min() < 0 or src.max() >= num_vertices):
        raise ValueError("src vertex id out of range")
    if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
        raise ValueError("dst vertex id out of range")


def vertex_ids(rows, num_vertices: int) -> np.ndarray:
    """``rows`` as int64 vertex ids.  An id outside ``[0, num_vertices)``
    is an ``IndexError`` naming the first one: numpy would wrap a
    negative id to a row from the end, and a read past the end is a
    short read, not a bad id."""
    rows = np.asarray(rows, dtype=np.int64)
    bad = np.flatnonzero((rows < 0) | (rows >= num_vertices))
    if bad.size:
        raise IndexError(
            f"vertex id {int(rows.flat[bad[0]])} is out of range for "
            f"{num_vertices} vertices"
        )
    return rows
