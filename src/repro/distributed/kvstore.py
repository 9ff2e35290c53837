"""A small shared-memory KV store for the multiprocess runtime.

Holds the tensors every worker must see — the partitioned input
features, one shard per owner — in ``multiprocessing.shared_memory``
segments, so worker processes read them zero-copy (:meth:`KVStore.get`
returns a numpy view over the shared pages, no serialization, no
socket); each worker gathers only its own input rows, owned ∪ halo,
out of those views.

The store is *owner-creates, everyone-reads/writes*: the parent process
creates every key before the workers are spawned (segment descriptors
travel to the children by fork inheritance or pickling), then both sides
may :meth:`set` into existing keys — the parent re-ships changed
features that way.  Keys cannot be *created* after the workers exist: a
new segment's name would not propagate.  Ship late-arriving data (e.g.
per-epoch rank blocks) through task messages instead.

This mirrors the split in DGL's ``dis_kvstore``: bulk tensors in shared
pages, a tiny amount of metadata (names, shapes) in ordinary pickled
state.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArray", "KVStore"]


class SharedArray:
    """A numpy array backed by a named ``SharedMemory`` segment.

    Picklable by descriptor (name, shape, dtype): the receiving process
    re-attaches lazily on first :attr:`array` access.  Only the creating
    process should :meth:`unlink`.
    """

    def __init__(self, shape: tuple[int, ...], dtype, *, name: str | None = None,
                 create: bool = True):
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        if create and name is None:
            name = f"repro_{secrets.token_hex(8)}"
        self.name = name
        self._owner = bool(create)
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            name=name, create=create, size=nbytes
        ) if create else None
        self._view: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.dtype.itemsize

    @property
    def array(self) -> np.ndarray:
        """Zero-copy numpy view over the shared pages (attaches lazily)."""
        if self._view is None:
            if self._shm is None:
                self._shm = shared_memory.SharedMemory(name=self.name)
            self._view = np.ndarray(self.shape, dtype=self.dtype,
                                    buffer=self._shm.buf)
        return self._view

    def __getstate__(self):
        return {"shape": self.shape, "dtype": self.dtype.str, "name": self.name}

    def __setstate__(self, state):
        self.shape = state["shape"]
        self.dtype = np.dtype(state["dtype"])
        self.name = state["name"]
        self._owner = False
        self._shm = None
        self._view = None

    def close(self) -> None:
        """Detach this process's mapping; :meth:`unlink` too if owner."""
        self._view = None
        if self._shm is not None:
            try:
                self._shm.close()
                if self._owner:
                    self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
            self._shm = None


class KVStore:
    """get/set/pull-batch over named shared arrays."""

    def __init__(self):
        self._entries: dict[str, SharedArray] = {}
        #: bytes copied out by get/pull_batch in this process (accounting)
        self.pulled_bytes = 0

    # ------------------------------------------------------------------
    def set(self, key: str, value: np.ndarray) -> None:
        """Write ``value`` into ``key``, creating the segment on first use.

        Re-sets must match the existing shape and dtype — keys are
        fixed-size slots, not growable blobs.
        """
        value = np.asarray(value)
        entry = self._entries.get(key)
        if entry is None:
            entry = SharedArray(value.shape, value.dtype)
            self._entries[key] = entry
        elif entry.shape != value.shape or entry.dtype != value.dtype:
            raise ValueError(
                f"kv key {key!r} holds {entry.shape}/{entry.dtype}, "
                f"got {value.shape}/{value.dtype}"
            )
        entry.array[...] = value

    def get(self, key: str) -> np.ndarray:
        """Zero-copy view of ``key`` (raises ``KeyError`` if absent)."""
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(key)
        self.pulled_bytes += entry.nbytes
        return entry.array

    def pull_batch(self, keys: list[str]) -> dict[str, np.ndarray]:
        """Fetch several keys at once (one logical round trip)."""
        return {key: self.get(key) for key in keys}

    def keys(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def nbytes(self, key: str) -> int:
        return self._entries[key].nbytes

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach (and, in the owning process, unlink) every segment."""
        for entry in self._entries.values():
            entry.close()
