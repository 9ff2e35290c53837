"""MAGNN (Fu et al.) expressed in NAU — the INHA representative.

NeighborSelection matches metapath instances (Figure 5's ``magnn_nbr``)
and builds depth-3 HDGs.  Aggregation applies, bottom-up (Figure 7):

1. ``scatter_mean`` over each instance's member vertices (intra-instance);
2. ``scatter_softmax`` attention over instances of the same metapath type
   (intra-metapath);
3. ``scatter_mean`` over metapath types (inter-metapath).

Update is ``ReLU(W * nbr_feas)``.  The HDGs never change across epochs,
so NeighborSelection runs once for the entire training process; an edge
edit re-selects only the roots it touches (:meth:`MAGNN.reselect`).
"""

from __future__ import annotations

import numpy as np

from ..core.hdg import HDG
from ..core.nau import GNNLayer, NAUModel, SelectionScope
from ..core.selection import build_metapath_hdg, reselect_metapath_hdg
from ..graph.graph import Graph
from ..graph.metapath import Metapath
from ..tensor.nn import Linear
from ..tensor.tensor import Tensor

__all__ = ["MAGNNLayer", "MAGNN", "magnn", "default_metapaths"]


def default_metapaths(num_types: int = 3, length: int = 3) -> list[Metapath]:
    """The evaluation setup: metapaths of 3 vertices over 3 vertex types.

    Generates the 6 symmetric movie-rooted patterns the IMDB-style schema
    supports (M-D-M, M-A-M, plus cross-type variants), truncated/extended
    to match ``num_types``.
    """
    if num_types < 2:
        raise ValueError("need at least two vertex types for metapaths")
    paths = []
    for mid in range(1, num_types):
        for end in range(num_types):
            paths.append(Metapath((0, mid, end), name=f"0-{mid}-{end}"))
    return paths[:6] if length == 3 else paths


class MAGNNLayer(GNNLayer):
    """One MAGNN layer: mean / attention / mean hierarchy + ReLU(W a)."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["mean", "attention", "mean"], dim=in_dim)
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def linear_update(self) -> tuple[None, Tensor]:
        # no self term: W a
        return None, self.linear.weight

    def combine(self, self_proj: None, nbr_proj: Tensor) -> Tensor:
        out = nbr_proj + self.linear.bias
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.linear.out_features


class MAGNN(NAUModel):
    """MAGNN over a typed graph with user-supplied metapaths."""

    category = "INHA"

    def __init__(self, dims: list[int], metapaths: list[Metapath],
                 max_instances_per_root: int | None = None, seed: int = 0):
        if len(dims) < 2:
            raise ValueError("dims must list input, hidden..., output sizes")
        if not metapaths:
            raise ValueError("MAGNN needs at least one metapath")
        rng = np.random.default_rng(seed)
        layers = [
            MAGNNLayer(dims[i], dims[i + 1], activation=i < len(dims) - 2, rng=rng)
            for i in range(len(dims) - 1)
        ]
        super().__init__(layers, SelectionScope.STATIC, name="MAGNN")
        self.metapaths = list(metapaths)
        self.max_instances_per_root = max_instances_per_root

    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG:
        return build_metapath_hdg(
            graph, self.metapaths, max_instances_per_root=self.max_instances_per_root
        )

    def reselect(self, hdg: HDG, graph: Graph,
                 changed: np.ndarray) -> tuple[HDG, np.ndarray] | None:
        # The touched-root rule covers 3-vertex metapaths only.
        if any(mp.length != 3 for mp in self.metapaths):
            return None
        return reselect_metapath_hdg(hdg, graph, changed, self.metapaths,
                                     self.max_instances_per_root)


def magnn(in_dim: int, hidden_dim: int, out_dim: int,
          metapaths: list[Metapath] | None = None, num_layers: int = 2,
          max_instances_per_root: int | None = None, seed: int = 0) -> MAGNN:
    """Build MAGNN; defaults to the 6 three-vertex metapaths of §7."""
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    metapaths = metapaths or default_metapaths()
    return MAGNN(dims, metapaths, max_instances_per_root, seed=seed)
