"""JK-Net (Xu et al., Jumping Knowledge) in NAU — an INHA model.

Section 3.2's discussion: vertex ``v``'s i-th "neighbor" is the ring of
vertices at shortest-path distance exactly ``i`` (1 <= i <= k).  The HDG
has one schema leaf per distance and (at most) one ring instance per
(root, distance).  Aggregation means within each ring and then max-pools
across distances (the JK max-pool combinator); Update is
``ReLU(W (h + a))``.
"""

from __future__ import annotations

import numpy as np

from ..core.hdg import HDG, hdg_from_instance_arrays
from ..core.nau import GNNLayer, NAUModel, SelectionScope, layer_dims, stack_layers
from ..core.selection import schema_for_rings, select_distance_ring_neighbors
from ..graph.graph import Graph
from ..tensor.nn import Linear
from ..tensor.tensor import Tensor

__all__ = ["JKNetLayer", "JKNet", "jknet"]


class JKNetLayer(GNNLayer):
    """One JK-Net layer: per-ring mean, identity per slot, max over rings."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["mean", "mean", "max"])
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def update(self, feats: Tensor, nbr_feats: Tensor) -> Tensor:
        out = self.linear(feats.add(nbr_feats))
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.linear.out_features


class JKNet(NAUModel):
    """JK-Net aggregating rings up to ``max_distance`` hops."""

    category = "INHA"

    def __init__(self, dims: list[int], max_distance: int = 2, seed: int = 0):
        layers = stack_layers(JKNetLayer, dims, seed)
        if max_distance < 1:
            raise ValueError("max_distance must be >= 1")
        super().__init__(layers, SelectionScope.STATIC, name="JK-Net")
        self.max_distance = max_distance

    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG:
        roots = np.arange(graph.num_vertices, dtype=np.int64)
        return hdg_from_instance_arrays(
            schema_for_rings(self.max_distance), roots,
            *select_distance_ring_neighbors(graph, self.max_distance),
            graph.num_vertices,
        )


def jknet(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
          max_distance: int = 2, seed: int = 0) -> JKNet:
    """Build a JK-Net model."""
    return JKNet(layer_dims(in_dim, hidden_dim, out_dim, num_layers),
                 max_distance, seed=seed)
