"""``repro.loader`` — the staged streaming minibatch pipeline.

Stages sample → feature gather → device-transfer stub on background
worker threads over a bounded prefetch window, so batch N+1 is being
produced while batch N trains.  Per-batch RNG seeds are pre-drawn from
the epoch seed, making the stream bitwise-identical across prefetch
depths and worker counts.  See ``docs/storage.md`` for tuning.
"""

from ..core.step import CompactBlocks, compact_blocks, run_local_blocks
from .pipeline import BatchPlan, SampledBatch, StreamingLoader, plan_epoch
from .source import DataSource, InMemorySource, QuantizedSource, as_source

__all__ = [
    "DataSource", "InMemorySource", "QuantizedSource", "as_source",
    "BatchPlan", "CompactBlocks", "SampledBatch",
    "StreamingLoader",
    "compact_blocks", "plan_epoch", "run_local_blocks",
]
