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
from ..core.nau import (LinearUpdateLayer, NAUModel, SelectionScope,
                        layer_dims, stack_layers)
from ..core.schema import SchemaTree
from ..core.selection import select_anchor_set_neighbors
from ..graph.graph import Graph

__all__ = ["PGNNLayer", "PGNN", "pgnn"]


class PGNNLayer(LinearUpdateLayer):
    """One P-GNN layer: mean/mean hierarchy + ReLU(W [h ; a])."""

    form = "concat"

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(["mean", "mean", "mean"], in_dim, out_dim,
                         activation, rng)


class PGNN(NAUModel):
    """P-GNN with ``num_anchor_sets`` shared random anchor sets."""

    category = "INHA"

    def __init__(self, dims: list[int], num_anchor_sets: int = 4,
                 anchor_set_size: int = 8, seed: int = 0):
        super().__init__(stack_layers(PGNNLayer, dims, seed),
                         SelectionScope.STATIC, name="P-GNN")
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
    return PGNN(layer_dims(in_dim, hidden_dim, out_dim, num_layers),
                num_anchor_sets, anchor_set_size, seed=seed)
