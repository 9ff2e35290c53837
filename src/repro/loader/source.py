"""Feature/label sources — what a streaming loader gathers from.

A :class:`DataSource` is anything that can hand back feature rows and
labels for an arbitrary set of vertex ids: an in-RAM array pair, a
:class:`~repro.datasets.synthetic.Dataset`, an in-RAM table held
quantized (:class:`QuantizedSource`), or an out-of-core
:class:`~repro.storage.ondisk.OnDiskDataset` (which implements the
protocol natively — its gathers touch only the memmap pages the rows
live on).  :func:`as_source` normalizes whatever the trainer was handed.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..graph.graph import vertex_ids
from ..tensor.quant import dequantize_rows, quantize_rows, resolve_codec

__all__ = ["DataSource", "InMemorySource", "QuantizedSource", "as_source"]


@runtime_checkable
class DataSource(Protocol):
    """Row-gatherable feature/label storage.

    It answers for its own store: ``codec`` (``None`` when exact) and
    ``wire_bytes_per_row``, the bytes one gathered row moves stored."""

    num_vertices: int
    feat_dim: int
    codec: str | None
    wire_bytes_per_row: int

    def gather_features(self, rows: np.ndarray) -> np.ndarray:
        """Feature rows in the requested order, shape (len(rows), feat_dim)."""
        ...

    def gather_labels(self, rows: np.ndarray) -> np.ndarray:
        """Label values in the requested order."""
        ...


class InMemorySource:
    """A :class:`DataSource` over arrays already resident in RAM."""

    codec = None

    def __init__(self, features, labels: np.ndarray | None = None):
        # Accept a Tensor without importing the tensor module.
        data = getattr(features, "data", features)
        self.features = np.asarray(data)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (num_vertices, feat_dim)")
        self.labels = None if labels is None else np.asarray(labels)
        self.num_vertices = int(self.features.shape[0])
        self.feat_dim = int(self.features.shape[1])
        self.wire_bytes_per_row = self.feat_dim * self.features.itemsize

    def gather_features(self, rows: np.ndarray) -> np.ndarray:
        return self.features[vertex_ids(rows, self.num_vertices)]

    def gather_labels(self, rows: np.ndarray) -> np.ndarray:
        if self.labels is None:
            raise ValueError("this source carries no labels")
        return self.labels[vertex_ids(rows, self.num_vertices)]


class QuantizedSource:
    """An in-RAM :class:`DataSource` holding its features quantized.

    Features are encoded once, where the source is built (``int8`` with
    per-row scales, or ``float16``/``float32``), and decoded per gather
    straight into float32 — the resident footprint and the bytes a
    gather moves shrink to the wire format (``wire_bytes_per_row``), the
    same trade the quantized on-disk tier makes.  The codec chooses only
    how rows are stored; the model's parameters choose the compute
    dtype.
    """

    def __init__(self, features, labels: np.ndarray | None = None,
                 codec: str = "int8"):
        data = np.asarray(getattr(features, "data", features))
        if data.ndim != 2:
            raise ValueError("features must be 2-D (num_vertices, feat_dim)")
        self.codec = resolve_codec(codec)
        self.quantized = quantize_rows(data, self.codec)
        self.labels = None if labels is None else np.asarray(labels)
        self.num_vertices = self.quantized.num_rows
        self.feat_dim = self.quantized.dim

    @property
    def wire_bytes_per_row(self) -> int:
        return self.quantized.wire_bytes_per_row

    @property
    def nbytes(self) -> int:
        return self.quantized.nbytes

    def gather_features(self, rows: np.ndarray) -> np.ndarray:
        return dequantize_rows(self.quantized,
                               rows=vertex_ids(rows, self.num_vertices))

    def gather_labels(self, rows: np.ndarray) -> np.ndarray:
        if self.labels is None:
            raise ValueError("this source carries no labels")
        return self.labels[vertex_ids(rows, self.num_vertices)]


def as_source(obj, labels: np.ndarray | None = None) -> DataSource:
    """Normalize trainer input into a :class:`DataSource`.

    Accepts an existing source (``OnDiskDataset``, ``InMemorySource``,
    ``QuantizedSource``), a ``Dataset``, or a raw feature array /
    ``Tensor`` plus optional ``labels``.  An explicit ``labels`` array
    overrides whatever the source carries.  A source keeps the codec it
    was built with; arrays and datasets become an exact
    :class:`InMemorySource`.
    """
    if hasattr(obj, "gather_features") and hasattr(obj, "gather_labels"):
        if labels is None:
            return obj
        return _LabelOverride(obj, labels)
    if hasattr(obj, "features") and hasattr(obj, "graph"):  # Dataset
        return InMemorySource(obj.features,
                              labels if labels is not None else obj.labels)
    return InMemorySource(obj, labels)


class _LabelOverride:
    """A source with its labels replaced (trainer was given both a
    source and an explicit label array).  Features, and so the codec
    and wire bytes, are the base's."""

    def __init__(self, base: DataSource, labels: np.ndarray):
        self._base = base
        self._labels = np.asarray(labels)
        self.num_vertices = base.num_vertices
        self.feat_dim = base.feat_dim
        self.codec = base.codec
        self.wire_bytes_per_row = base.wire_bytes_per_row

    def gather_features(self, rows: np.ndarray) -> np.ndarray:
        return self._base.gather_features(rows)

    def gather_labels(self, rows: np.ndarray) -> np.ndarray:
        return self._labels[vertex_ids(rows, self.num_vertices)]
