"""Per-partition worker state for the simulated shared-nothing cluster."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hdg import HDG

__all__ = ["Worker"]


@dataclass
class Worker:
    """One shared-nothing worker: its vertices and its slice of the HDGs.

    ``root_orders`` indexes into the global HDG root ordering; ``sub_hdg``
    is the restriction of the current model HDG to this worker's roots
    (leaf ids stay global — remote leaves are what synchronization pays
    for).
    """

    worker_id: int
    root_orders: np.ndarray
    sub_hdg: HDG | None = None

    def attach_hdg(self, model_hdg: HDG) -> None:
        """Slice the freshly built model HDG down to this worker's roots."""
        self.sub_hdg = model_hdg.restrict_to_roots(self.root_orders)
