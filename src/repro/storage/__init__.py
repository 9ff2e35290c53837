"""``repro.storage`` — the Figure 12 storage tier: datasets and checkpoints.

Datasets live in the one ``repro.ondisk/1`` format (a worker's
partition is a row gather over it); model checkpoints are ``.npz``
files read back without unpickling.
"""

from .ondisk import (
    OnDiskDataset,
    OnDiskIntegrityError,
    write_ondisk_dataset,
    write_synthetic_ondisk,
)
from .store import checkpoint_metadata, load_checkpoint, save_checkpoint

__all__ = [
    "save_checkpoint", "load_checkpoint", "checkpoint_metadata",
    "OnDiskIntegrityError", "OnDiskDataset",
    "write_ondisk_dataset", "write_synthetic_ondisk",
]
