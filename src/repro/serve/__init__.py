"""``repro.serve`` — online GNN inference serving.

The training side of this repo ends at a checkpoint; this package is
the request/response side: load a checkpoint against a pinned graph
(:class:`InferenceSession`), answer ``predict``/``embed`` for seed sets
via seed-restricted HDG blocks instead of full-graph forwards, coalesce
concurrent requests into blocked forwards
(:class:`~repro.serve.batcher.MicroBatcher`), memoize per-layer
embeddings in a byte-budgeted LRU
(:class:`~repro.serve.cache.EmbeddingCache`) with targeted invalidation
on graph updates, and run it all behind :class:`GNNServer` — a worker
pool with queue-depth-bounded admission control (load shedding),
graceful drain, and SLO accounting through :mod:`repro.obs`.

Quickstart
----------
>>> from repro.serve import InferenceSession, GNNServer
>>> session = InferenceSession(model, ds.graph, ds.features,
...                            checkpoint="model.npz")
>>> with GNNServer(session, max_batch_size=64) as server:
...     classes = server.predict([17, 42])
...     print(server.slo_summary()["latency_ms"]["p99"])  # exact, recent window

See ``docs/serving.md`` for architecture and operational semantics.
"""

from .batcher import InferenceRequest, MicroBatcher, ServerOverloaded
from .cache import EmbeddingCache
from .server import GNNServer
from .session import CheckpointMismatch, InferenceSession

__all__ = [
    "InferenceSession",
    "CheckpointMismatch",
    "GNNServer",
    "ServerOverloaded",
    "MicroBatcher",
    "InferenceRequest",
    "EmbeddingCache",
]
