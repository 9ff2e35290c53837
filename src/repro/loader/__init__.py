"""``repro.loader`` — the staged streaming minibatch pipeline.

Stages sample → feature gather → device-transfer stub on background
worker threads over a bounded prefetch window, so batch N+1 is being
produced while batch N trains.  Per-batch RNG seeds are pre-drawn from
the epoch seed, making the stream bitwise-identical across prefetch
depths and worker counts.  See ``docs/storage.md`` for tuning.
"""

from ..core.step import CompactBlocks, compact_blocks, run_local_blocks
from .pipeline import BatchPlan, StreamingLoader, plan_epoch
from .source import DataSource, as_source

__all__ = [
    "DataSource", "as_source",
    "BatchPlan", "CompactBlocks",
    "StreamingLoader",
    "compact_blocks", "plan_epoch", "run_local_blocks",
]
