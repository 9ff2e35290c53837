"""GIN (Xu et al., "How Powerful are GNNs?") in NAU — a second DNFA model.

Aggregation is an injective sum over direct neighbors; Update is
``MLP((1 + eps) * h + a)`` with a learnable ``eps`` — the MLP's first
layer is linear in the aggregate, which the layer declares.
"""

from __future__ import annotations

import numpy as np

from ..core.nau import GNNLayer, NAUModel, SelectionScope, layer_dims, stack_layers
from ..tensor.nn import Linear, Parameter
from ..tensor.tensor import Tensor

__all__ = ["GINLayer", "GIN", "gin"]


class GINLayer(GNNLayer):
    """One GIN layer: sum aggregation + 2-layer MLP update."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["sum"])
        self.fc1 = Linear(in_dim, out_dim, rng=rng)
        self.fc2 = Linear(out_dim, out_dim, rng=rng)
        self.eps = Parameter(np.zeros(1))
        self.activation = activation

    def linear_update(self) -> tuple[Tensor, Tensor]:
        return self.fc1.weight, self.fc1.weight

    def combine(self, self_proj: Tensor, nbr_proj: Tensor) -> Tensor:
        hidden = self_proj * (self.eps + 1.0) + nbr_proj + self.fc1.bias
        out = self.fc2(hidden.relu())
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.fc2.out_features


class GIN(NAUModel):
    """A stack of GIN layers over the DNFA fast path."""

    category = "DNFA"

    def __init__(self, dims: list[int], seed: int = 0):
        super().__init__(stack_layers(GINLayer, dims, seed),
                         SelectionScope.STATIC, name="GIN")


def gin(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
        seed: int = 0) -> GIN:
    """Build a GIN model."""
    return GIN(layer_dims(in_dim, hidden_dim, out_dim, num_layers), seed=seed)
