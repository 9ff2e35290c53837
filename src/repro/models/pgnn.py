"""P-GNN (You et al.) in NAU — an INHA model built on anchor sets.

Section 3.2's discussion: each vertex's i-th "neighbor" is the i-th of
``k`` shared anchor sets; the HDG has three levels (anchor-set instances
in the middle, their member vertices at the bottom).  Aggregation first
means within each anchor set, then means across a vertex's anchor sets;
Update is ``ReLU(W [h ; a])`` to retain position information relative to
the vertex's own feature.
"""

from __future__ import annotations

import numpy as np

from ..core.hdg import HDG, build_hdg
from ..core.nau import GNNLayer, NAUModel, SelectionScope
from ..core.schema import SchemaTree
from ..core.selection import select_anchor_set_neighbors
from ..graph.graph import Graph
from ..tensor.nn import Linear
from ..tensor.tensor import Tensor

__all__ = ["PGNNLayer", "PGNN", "pgnn"]


class PGNNLayer(GNNLayer):
    """One P-GNN layer: mean/mean hierarchy + ReLU(W [h ; a])."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["mean", "mean", "mean"])
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


class PGNN(NAUModel):
    """P-GNN with ``num_anchor_sets`` shared random anchor sets."""

    category = "INHA"

    def __init__(self, dims: list[int], num_anchor_sets: int = 4,
                 anchor_set_size: int = 8, seed: int = 0):
        if len(dims) < 2:
            raise ValueError("dims must list input, hidden..., output sizes")
        rng = np.random.default_rng(seed)
        layers = [
            PGNNLayer(dims[i], dims[i + 1], activation=i < len(dims) - 2, rng=rng)
            for i in range(len(dims) - 1)
        ]
        super().__init__(layers, SelectionScope.STATIC, name="P-GNN")
        self.num_anchor_sets = num_anchor_sets
        self.anchor_set_size = anchor_set_size

    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG:
        records = select_anchor_set_neighbors(
            graph, self.num_anchor_sets, self.anchor_set_size, rng=rng
        )
        roots = np.arange(graph.num_vertices, dtype=np.int64)
        return build_hdg(
            records, SchemaTree(("anchor_set",)), roots, graph.num_vertices, flat=False
        )


def pgnn(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
         num_anchor_sets: int = 4, anchor_set_size: int = 8, seed: int = 0) -> PGNN:
    """Build a P-GNN model."""
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    return PGNN(dims, num_anchor_sets, anchor_set_size, seed=seed)
