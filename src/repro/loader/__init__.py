"""``repro.loader`` — the staged streaming minibatch pipeline.

Stages sample → feature gather on background worker threads over a
bounded prefetch window, so batch N+1 is being produced while batch N
trains.  A :class:`DataSource` answers for its own codec and wire
bytes; the loader takes it as given.  Per-batch RNG seeds are pre-drawn
from the epoch seed, making the stream bitwise-identical across
prefetch depths and worker counts.  See ``docs/storage.md`` for tuning.
"""

from ..core.step import CompactBlocks, compact_blocks, run_local_blocks
from .pipeline import BatchPlan, StreamingLoader, plan_epoch
from .source import DataSource, QuantizedSource, as_source

__all__ = [
    "DataSource", "QuantizedSource", "as_source",
    "BatchPlan", "CompactBlocks",
    "StreamingLoader",
    "compact_blocks", "plan_epoch", "run_local_blocks",
]
