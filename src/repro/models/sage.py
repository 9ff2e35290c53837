"""GraphSAGE (Hamilton et al.) in NAU — pooling aggregation variant.

A DNFA model that demonstrates overriding the *Aggregation* stage
itself: SAGE-pool first pushes every neighbor feature through a learned
transform and only then max-reduces, so the layer replaces the default
level-wise executor rather than just picking built-in UDFs.
"""

from __future__ import annotations

import numpy as np

from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import GNNLayer, NAUModel, SelectionScope
from ..tensor.nn import Linear
from ..tensor.ops import concat
from ..tensor.scatter import scatter_max, segment_reduce_csr
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
        super().__init__()
        pool_dim = pool_dim or in_dim
        self.pool = Linear(in_dim, pool_dim, rng=rng)
        self.linear = Linear(in_dim + pool_dim, out_dim, rng=rng)
        self.activation = activation

    def aggregation(self, feats: Tensor, hdg: HDG,
                    strategy: ExecutionStrategy = ExecutionStrategy.HA) -> Tensor:
        """Transform-then-reduce: the NN op happens *inside* Aggregation.

        The pooled features are computed once for all vertices (dense,
        cheap) and the reduction runs over the flat HDG like any other
        UDF, so the hybrid strategies still apply.
        """
        if hdg.depth != 1:
            raise ValueError("SAGE-pool is a DNFA model (flat HDGs only)")
        pooled = self.pool(feats).relu()
        plan = hdg.plan(1, pooled.shape[0])
        if ExecutionStrategy.parse(strategy) is ExecutionStrategy.SA:
            return scatter_max(pooled[hdg.leaf_vertices],
                               plan=plan.pregathered())
        return segment_reduce_csr(pooled, reducer="max", plan=plan)

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
        if len(dims) < 2:
            raise ValueError("dims must list input, hidden..., output sizes")
        rng = np.random.default_rng(seed)
        layers = [
            SAGELayer(dims[i], dims[i + 1], activation=i < len(dims) - 2, rng=rng)
            for i in range(len(dims) - 1)
        ]
        super().__init__(layers, SelectionScope.STATIC, name="GraphSAGE")


def graphsage(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int = 2,
              seed: int = 0) -> GraphSAGE:
    """Build a GraphSAGE-pool model."""
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
    return GraphSAGE(dims, seed=seed)
