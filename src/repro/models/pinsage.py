"""PinSage (Ying et al.) expressed in NAU — the INFA representative.

NeighborSelection runs ``num_traces`` random walks of ``n_hops`` hops per
vertex and keeps the ``top_k`` most-visited vertices as "neighbors"
(Figure 5's ``pinsage_nbr``), with their normalized visit frequencies as
importance weights.  Aggregation is an importance-weighted sum over the
flat HDG; Update is ``ReLU(W * CONCAT(feas, nbr_feas))`` (Figure 7).

The HDGs are rebuilt once per epoch: walks are stochastic, but NAU lets
the layers of one epoch share them (Section 3.2, Discussion).
"""

from __future__ import annotations

import numpy as np

from ..core.hdg import HDG, hdg_from_flat_arrays
from ..core.nau import GNNLayer, NAUModel, SelectionScope
from ..core.schema import SchemaTree
from ..graph.random_walk import top_k_visited
from ..graph.graph import Graph
from ..tensor.nn import Linear
from ..tensor.tensor import Tensor

__all__ = ["PinSageLayer", "PinSage", "pinsage"]


class PinSageLayer(GNNLayer):
    """One PinSage layer: weighted-sum aggregation + ReLU(W [h ; a])."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["weighted_sum"])
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


class PinSage(NAUModel):
    """PinSage with the paper's evaluation parameters by default:
    10 walks of length 3 per vertex, top-10 visited as neighbors."""

    category = "INFA"

    def __init__(self, dims: list[int], num_traces: int = 10, n_hops: int = 3,
                 top_k: int = 10, seed: int = 0, selection: str = "walks"):
        if len(dims) < 2:
            raise ValueError("dims must list input, hidden..., output sizes")
        if selection not in ("walks", "ppr"):
            raise ValueError(f"selection must be 'walks' or 'ppr', got {selection!r}")
        rng = np.random.default_rng(seed)
        layers = [
            PinSageLayer(dims[i], dims[i + 1], activation=i < len(dims) - 2, rng=rng)
            for i in range(len(dims) - 1)
        ]
        # PPR neighborhoods are deterministic, so they need only be built
        # once; walk-based ones are re-drawn each epoch.
        scope = SelectionScope.STATIC if selection == "ppr" else SelectionScope.PER_EPOCH
        super().__init__(layers, scope, name="PinSage")
        self.num_traces = num_traces
        self.n_hops = n_hops
        self.top_k = top_k
        self.selection = selection

    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
        if self.selection == "ppr":
            # Deterministic variant: personalized PageRank is the
            # many-walk limit of the visit-count definition.
            from ..graph.pagerank import top_k_ppr_neighbors

            owners, nbrs, weights = top_k_ppr_neighbors(graph, roots, self.top_k)
        else:
            owners, nbrs, weights = top_k_visited(
                graph, roots, self.num_traces, self.n_hops, self.top_k, rng
            )
        return hdg_from_flat_arrays(
            SchemaTree(), roots, owners, nbrs, weights, graph.num_vertices
        )


def pinsage(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
            num_traces: int = 10, n_hops: int = 3, top_k: int = 10,
            seed: int = 0, selection: str = "walks") -> PinSage:
    """Build a PinSage model with the paper's defaults.

    ``selection="ppr"`` swaps the random-walk neighborhood for its
    deterministic personalized-PageRank limit.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    return PinSage(dims, num_traces, n_hops, top_k, seed=seed, selection=selection)
