"""GraphSAGE (Hamilton et al.) in NAU — pooling aggregation variant.

A DNFA model that demonstrates overriding the *Aggregation* stage
itself: SAGE-pool first pushes every neighbor feature through a learned
transform and only then max-reduces, so the layer wraps the default
level-wise executor rather than just picking built-in UDFs.  The
reduction is the built-in ``max`` UDF, run by the hybrid executor, which
alone picks its backend per strategy.
"""

from __future__ import annotations

import numpy as np

from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import GNNLayer, NAUModel, SelectionScope, layer_dims, stack_layers
from ..tensor.nn import Linear
from ..tensor.ops import concat
from ..tensor.tensor import Tensor

__all__ = ["SAGELayer", "GraphSAGE", "graphsage"]


class SAGELayer(GNNLayer):
    """One SAGE-pool layer: max(ReLU(W_pool h_u)) + ReLU(W [h ; a])."""

    #: the overridden Aggregation is an elementwise max — partial
    #: results fold, so §5's pipelined aggregation stays valid
    commutative = True

    def __init__(self, in_dim: int, out_dim: int, pool_dim: int | None = None,
                 activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["max"])
        pool_dim = pool_dim or in_dim
        self.pool = Linear(in_dim, pool_dim, rng=rng)
        self.linear = Linear(in_dim + pool_dim, out_dim, rng=rng)
        self.activation = activation

    def aggregation(self, feats: Tensor, hdg: HDG,
                    strategy: ExecutionStrategy = ExecutionStrategy.HA) -> Tensor:
        """Transform-then-reduce: the NN op happens *inside* Aggregation.

        The pooled features are computed once for all vertices (dense,
        cheap), and the default level-wise executor max-reduces them
        over the flat HDG like any other UDF, so the hybrid strategies
        apply unchanged.
        """
        return super().aggregation(self.pool(feats).relu(), hdg, strategy)

    def update(self, feats: Tensor, nbr_feats: Tensor) -> Tensor:
        out = self.linear(concat([feats, nbr_feats], axis=-1))
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.linear.out_features


class GraphSAGE(NAUModel):
    """A stack of SAGE-pool layers over the DNFA fast path."""

    category = "DNFA"

    def __init__(self, dims: list[int], seed: int = 0):
        super().__init__(stack_layers(SAGELayer, dims, seed),
                         SelectionScope.STATIC, name="GraphSAGE")


def graphsage(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
              seed: int = 0) -> GraphSAGE:
    """Build a GraphSAGE-pool model."""
    return GraphSAGE(layer_dims(in_dim, hidden_dim, out_dim, num_layers),
                     seed=seed)
