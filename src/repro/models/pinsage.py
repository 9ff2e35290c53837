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
from ..core.nau import (LinearUpdateLayer, NAUModel, SelectionScope,
                        layer_dims, stack_layers)
from ..core.schema import SchemaTree
from ..graph.random_walk import top_k_visited
from ..graph.graph import Graph

__all__ = ["PinSageLayer", "PinSage", "pinsage"]


class PinSageLayer(LinearUpdateLayer):
    """One PinSage layer: weighted-sum aggregation + ReLU(W [h ; a])."""

    form = "concat"

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(["weighted_sum"], in_dim, out_dim, activation, rng)


class PinSage(NAUModel):
    """PinSage with the paper's evaluation parameters by default:
    10 walks of length 3 per vertex, top-10 visited as neighbors."""

    category = "INFA"

    def __init__(self, dims: list[int], num_traces: int = 10, n_hops: int = 3,
                 top_k: int = 10, seed: int = 0, selection: str = "walks"):
        layers = stack_layers(PinSageLayer, dims, seed)
        if selection not in ("walks", "ppr"):
            raise ValueError(f"selection must be 'walks' or 'ppr', got {selection!r}")
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
    return PinSage(layer_dims(in_dim, hidden_dim, out_dim, num_layers),
                   num_traces, n_hops, top_k, seed=seed, selection=selection)
