"""GAT-style attention network in NAU — a third DNFA model.

Direct 1-hop neighbors with a flat *attention* aggregation: each
neighbor's contribution is softmax-weighted by a learned score.  In NAU
terms it is simply a flat HDG with the ``attention`` aggregation UDF —
demonstrating that attention models need no abstraction changes
(contrast with SAGA-NN, where attention requires an explicit ApplyEdge
stage).
"""

from __future__ import annotations

import numpy as np

from ..core.nau import (LinearUpdateLayer, NAUModel, SelectionScope,
                        layer_dims, stack_layers)

__all__ = ["GATLayer", "GAT", "gat"]


class GATLayer(LinearUpdateLayer):
    """One attention layer: softmax-weighted neighbor sum + ReLU(W [h; a])."""

    form = "concat"

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(["attention"], in_dim, out_dim, activation, rng)


class GAT(NAUModel):
    """A stack of attention layers over the DNFA fast path."""

    category = "DNFA"

    def __init__(self, dims: list[int], seed: int = 0):
        super().__init__(stack_layers(GATLayer, dims, seed),
                         SelectionScope.STATIC, name="GAT")


def gat(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
        seed: int = 0) -> GAT:
    """Build a GAT model."""
    return GAT(layer_dims(in_dim, hidden_dim, out_dim, num_layers), seed=seed)
