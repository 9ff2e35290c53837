"""Model checkpoints: a ``state_dict`` plus JSON metadata in one ``.npz``.

Datasets live in the ``repro.ondisk/1`` format (:mod:`.ondisk`); this
module persists what training produces.  A checkpoint holds only plain
numeric arrays and one unicode JSON string, and is read back without
unpickling, so loading an untrusted file cannot run code.
"""

from __future__ import annotations

import json

import numpy as np

from ..graph.graph import Graph

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_metadata",
]

_FORMAT_VERSION = 2


def save_checkpoint(state: dict[str, np.ndarray], path: str,
                    metadata: dict | None = None) -> None:
    """Persist a model ``state_dict`` plus optional JSON metadata.

    The dotted parameter names of ``Module.state_dict()`` are stored
    as-is; metadata (epoch, loss, config) rides along as a JSON string.
    Object-dtype arrays are refused: they could only be read back by
    unpickling.
    """
    payload = {}
    for name, value in state.items():
        value = np.asarray(value)
        if value.dtype.hasobject:
            raise ValueError(
                f"checkpoint state {name!r} has dtype {value.dtype}; only "
                "numeric arrays can be stored"
            )
        payload[f"param::{name}"] = value
    payload["format_version"] = np.int64(_FORMAT_VERSION)
    payload["metadata"] = np.array(json.dumps(metadata or {}))
    np.savez_compressed(path, **payload)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Load a checkpoint; returns (state_dict, metadata)."""
    with np.load(path) as data:
        _check_version(int(data["format_version"]), path)
        state = {
            key[len("param::"):]: data[key]
            for key in data.files
            if key.startswith("param::")
        }
        metadata = json.loads(str(data["metadata"]))
    return state, metadata


def checkpoint_metadata(model, graph: Graph | None = None,
                        extra: dict | None = None) -> dict:
    """Round-trippable checkpoint metadata for a NAU model.

    Records what a loader needs to *verify* compatibility before serving
    the state: the model class name, per-layer output dims, and — when a
    graph is given — its structural fingerprint, so an
    :class:`repro.serve.InferenceSession` can refuse a checkpoint whose
    graph no longer matches the one it is pinned to.
    """
    meta = {
        "model_class": type(model).__name__,
        "model_name": getattr(model, "name", type(model).__name__),
        "layer_dims": [int(layer.output_dim) for layer in model.layers],
    }
    if graph is not None:
        meta["graph_fingerprint"] = graph.fingerprint()
        meta["num_vertices"] = int(graph.num_vertices)
    if extra:
        meta.update(extra)
    return meta


def _check_version(version: int, path: str) -> None:
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {version} not supported "
            f"(expected {_FORMAT_VERSION})"
        )
