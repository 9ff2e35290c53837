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

from ..core.nau import GNNLayer, NAUModel, SelectionScope
from ..tensor.nn import Linear
from ..tensor.tensor import Tensor

__all__ = ["GATLayer", "GAT", "gat"]


class GATLayer(GNNLayer):
    """One attention layer: softmax-weighted neighbor sum + ReLU(W [h; a])."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["attention"], dim=in_dim)
        self.linear = Linear(2 * in_dim, out_dim, rng=rng)
        self.activation = activation

    def linear_update(self) -> tuple[Tensor, Tensor]:
        # W [h ; a] = W_top h + W_bottom a
        weight, in_dim = self.linear.weight, self.linear.in_features // 2
        return weight[:in_dim], weight[in_dim:]

    def combine(self, self_proj: Tensor, nbr_proj: Tensor) -> Tensor:
        out = self_proj + nbr_proj + self.linear.bias
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.linear.out_features


class GAT(NAUModel):
    """A stack of attention layers over the DNFA fast path."""

    category = "DNFA"

    def __init__(self, dims: list[int], seed: int = 0):
        if len(dims) < 2:
            raise ValueError("dims must list input, hidden..., output sizes")
        rng = np.random.default_rng(seed)
        layers = [
            GATLayer(dims[i], dims[i + 1], activation=i < len(dims) - 2, rng=rng)
            for i in range(len(dims) - 1)
        ]
        super().__init__(layers, SelectionScope.STATIC, name="GAT")


def gat(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
        seed: int = 0) -> GAT:
    """Build a GAT model."""
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    return GAT(dims, seed=seed)
