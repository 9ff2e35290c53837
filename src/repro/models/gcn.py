"""GCN (Kipf & Welling) expressed in NAU — the DNFA representative.

Figure 7's NAU program: Aggregation is a plain ``scatter_add`` over the
flat HDG (which is just the input graph); Update is
``ReLU(W * feas.add(nbr_feas))`` — linear in the aggregate, which the
layer declares so the engine may reduce at ``W``'s narrower side.
"""

from __future__ import annotations

import numpy as np

from ..core.nau import GNNLayer, NAUModel, SelectionScope
from ..tensor.nn import Linear
from ..tensor.tensor import Tensor

__all__ = ["GCNLayer", "GCN", "gcn"]


class GCNLayer(GNNLayer):
    """One GCN layer: sum aggregation + ReLU(W(h + a)).

    ``aggregator`` defaults to the paper's plain ``sum`` (Figure 7);
    ``mean`` gives the degree-normalized variant that behaves better on
    heavy-tailed graphs.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None,
                 aggregator: str = "sum"):
        super().__init__(aggregators=[aggregator])
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def linear_update(self) -> tuple[Tensor, Tensor]:
        return self.linear.weight, self.linear.weight

    def combine(self, self_proj: Tensor, nbr_proj: Tensor) -> Tensor:
        out = self_proj + nbr_proj + self.linear.bias
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.linear.out_features


class GCN(NAUModel):
    """A stack of GCN layers.

    DNFA fast path: NeighborSelection reuses the input graph as the flat
    HDG, built once and cached for the whole run (§7.4: "we do not need to
    build HDGs explicitly" for GCN).
    """

    category = "DNFA"

    def __init__(self, dims: list[int], seed: int = 0, aggregator: str = "sum"):
        if len(dims) < 2:
            raise ValueError("dims must list input, hidden..., output sizes")
        rng = np.random.default_rng(seed)
        layers = [
            GCNLayer(dims[i], dims[i + 1], activation=i < len(dims) - 2,
                     rng=rng, aggregator=aggregator)
            for i in range(len(dims) - 1)
        ]
        super().__init__(layers, SelectionScope.STATIC, name="GCN")


def gcn(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
        seed: int = 0, aggregator: str = "sum") -> GCN:
    """Build a GCN with the paper's default two layers."""
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    return GCN(dims, seed=seed, aggregator=aggregator)
