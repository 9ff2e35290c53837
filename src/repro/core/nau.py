"""The NAU programming abstraction (Section 3.2, Figure 4).

NAU splits each GNN layer into three stages:

* **NeighborSelection** — build HDGs from the input graph via a UDF;
* **Aggregation** — apply per-level aggregation UDFs bottom-up over the
  HDGs to produce neighborhood representations;
* **Update** — combine each vertex's previous feature with its
  neighborhood representation using dense NN ops.

:class:`GNNLayer` is the user-facing interface of Figure 4.  A
:class:`NAUModel` stacks layers and declares the HDG reuse policy: NAU
"does not require the users to define or execute stage NeighborSelection
in every GNN layer" — GCN reuses the input graph, PinSage rebuilds its
HDGs once per epoch, MAGNN's HDGs never change (Section 3.2, Discussion).
"""

from __future__ import annotations

import enum

import numpy as np

from ..graph.graph import Graph
from ..tensor.nn import Module
from ..tensor.tensor import Tensor
from .aggregation import Aggregator, get_aggregator
from .hdg import HDG, hdg_from_graph
from .hybrid import ExecutionStrategy, hierarchical_aggregate

__all__ = ["SelectionScope", "GNNLayer", "NAUModel"]


class SelectionScope(enum.Enum):
    """How long the HDGs built by NeighborSelection stay valid."""

    STATIC = "static"      # once for the whole training run (GCN, MAGNN)
    PER_EPOCH = "per_epoch"  # rebuilt at each epoch (PinSage's random walks)
    PER_LAYER = "per_layer"  # rebuilt for every layer invocation


class GNNLayer(Module):
    """One GNN layer expressed in NAU.

    Subclasses override :meth:`update` (Equation (2)) and either set
    ``self.aggregators`` (bottom-up UDF list consumed by the default
    level-wise :meth:`aggregation`) or override :meth:`aggregation`
    entirely.  :meth:`neighbor_selection` defaults to ``None``, meaning
    the layer uses the model-level HDGs (the common case).
    """

    def __init__(self, aggregators: list[Aggregator | str] | None = None,
                 dim: int | None = None):
        super().__init__()
        self.aggregators: list[Aggregator] = []
        if aggregators is not None:
            for i, spec in enumerate(aggregators):
                agg = get_aggregator(spec, dim=dim)
                self.aggregators.append(agg)
                # Register parameterized aggregators (attention) as children.
                setattr(self, f"_agg{i}", agg)

    # -- NeighborSelection -------------------------------------------------
    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG | None:
        """Build this layer's HDGs, or return ``None`` to use the model's."""
        return None

    # -- Aggregation --------------------------------------------------------
    def aggregation(self, feats: Tensor, hdg: HDG,
                    strategy: ExecutionStrategy = ExecutionStrategy.HA) -> Tensor:
        """Level-wise bottom-up aggregation (Figure 6's default loop)."""
        if not self.aggregators:
            raise NotImplementedError(
                "set self.aggregators or override aggregation()"
            )
        return hierarchical_aggregate(hdg, feats, self.aggregators, strategy)

    # -- Update --------------------------------------------------------------
    def update(self, feats: Tensor, nbr_feats: Tensor) -> Tensor:
        """Combine previous features with neighborhood representations."""
        raise NotImplementedError

    def forward(self, feats: Tensor, hdg: HDG,
                strategy: ExecutionStrategy = ExecutionStrategy.HA,
                rows: np.ndarray | None = None) -> Tensor:
        """Aggregate over ``hdg`` and update its roots.

        ``hdg`` may be a *block* — a sub-HDG whose roots are only some
        of ``feats``' rows (a sampled batch, a worker's partition
        slice); ``rows`` then names the roots' feature rows and the
        result has one row per root.  ``rows=None`` is the full-graph
        case: the roots are every row, in order.
        """
        nbr_feats = self.aggregation(feats, hdg, strategy)
        return self.update(feats if rows is None else feats[rows], nbr_feats)

    @property
    def output_dim(self) -> int:
        """Feature dimension this layer produces (used for stacking checks)."""
        raise NotImplementedError


class NAUModel(Module):
    """A stack of :class:`GNNLayer` with a shared NeighborSelection policy.

    Parameters
    ----------
    layers:
        The GNN layers, applied in order.
    selection_scope:
        HDG reuse policy (see :class:`SelectionScope`).
    name:
        Display name for logs and benchmark tables.
    """

    #: Which GNN category the model belongs to (Section 2.2). Subclasses set it.
    category = "DNFA"

    def __init__(self, layers: list[GNNLayer],
                 selection_scope: SelectionScope = SelectionScope.STATIC,
                 name: str = "nau-model"):
        super().__init__()
        if not layers:
            raise ValueError("model needs at least one layer")
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
        self.selection_scope = SelectionScope(selection_scope)
        self.name = name

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # -- NeighborSelection ---------------------------------------------------
    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG:
        """Build the model-level HDGs.

        The default is the DNFA fast path: reuse the input graph as a flat
        HDG of direct neighbors.  INFA/INHA models override this with
        their own UDF-driven construction.
        """
        return hdg_from_graph(graph)

    def forward(self, feats: Tensor, hdgs: list[HDG],
                strategy: ExecutionStrategy = ExecutionStrategy.HA) -> Tensor:
        """Run all layers given one HDG per layer."""
        if len(hdgs) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} HDGs, got {len(hdgs)}")
        h = feats
        for layer, hdg in zip(self.layers, hdgs):
            h = layer.forward(h, hdg, strategy)
        return h
