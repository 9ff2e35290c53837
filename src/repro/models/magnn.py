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
from ..core.nau import (LinearUpdateLayer, NAUModel, SelectionScope,
                        layer_dims, stack_layers)
from ..core.selection import build_metapath_hdg, reselect_metapath_hdg
from ..graph.graph import Graph
from ..graph.metapath import Metapath

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


class MAGNNLayer(LinearUpdateLayer):
    """One MAGNN layer: mean / attention / mean hierarchy + ReLU(W a)."""

    form = "nbr"

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(["mean", "attention", "mean"], in_dim, out_dim,
                         activation, rng)


class MAGNN(NAUModel):
    """MAGNN over a typed graph with user-supplied metapaths."""

    category = "INHA"

    def __init__(self, dims: list[int], metapaths: list[Metapath],
                 max_instances_per_root: int | None = None, seed: int = 0):
        layers = stack_layers(MAGNNLayer, dims, seed)
        if not metapaths:
            raise ValueError("MAGNN needs at least one metapath")
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
    """Build MAGNN; ``metapaths=None`` takes the 6 metapaths of §7."""
    if metapaths is None:
        metapaths = default_metapaths()
    return MAGNN(layer_dims(in_dim, hidden_dim, out_dim, num_layers),
                 metapaths, max_instances_per_root, seed=seed)
