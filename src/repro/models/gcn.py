"""GCN (Kipf & Welling) expressed in NAU — the DNFA representative.

Figure 7's NAU program: Aggregation is a plain ``scatter_add`` over the
flat HDG (which is just the input graph); Update is
``ReLU(W * feas.add(nbr_feas))`` — linear in the aggregate, which the
layer declares so the engine may reduce at ``W``'s narrower side.
"""

from __future__ import annotations

import numpy as np

from ..core.nau import (LinearUpdateLayer, NAUModel, SelectionScope,
                        layer_dims, stack_layers)

__all__ = ["GCNLayer", "GCN", "gcn"]


class GCNLayer(LinearUpdateLayer):
    """One GCN layer: sum aggregation + ReLU(W(h + a)).

    ``aggregator`` defaults to the paper's plain ``sum`` (Figure 7);
    ``mean`` gives the degree-normalized variant that behaves better on
    heavy-tailed graphs.
    """

    form = "sum"

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None,
                 aggregator: str = "sum"):
        super().__init__([aggregator], in_dim, out_dim, activation, rng)


class GCN(NAUModel):
    """A stack of GCN layers.

    DNFA fast path: NeighborSelection reuses the input graph as the flat
    HDG, built once and cached for the whole run (§7.4: "we do not need to
    build HDGs explicitly" for GCN).
    """

    category = "DNFA"

    def __init__(self, dims: list[int], seed: int = 0, aggregator: str = "sum"):
        layers = stack_layers(GCNLayer, dims, seed, aggregator=aggregator)
        super().__init__(layers, SelectionScope.STATIC, name="GCN")


def gcn(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
        seed: int = 0, aggregator: str = "sum") -> GCN:
    """Build a GCN with the paper's default two layers."""
    return GCN(layer_dims(in_dim, hidden_dim, out_dim, num_layers), seed=seed,
               aggregator=aggregator)
