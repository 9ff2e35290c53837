"""Model math shared by the baseline engines.

Every baseline trains the *same* GCN / PinSage / MAGNN equations as
FlexGraph — the engines differ only in how NeighborSelection and
Aggregation are executed.  This module holds the per-layer weights and
Update math so those differences stay isolated in the engines.
"""

from __future__ import annotations

import numpy as np

from ..core.aggregation import AttentionAggregator, MeanAggregator
from ..tensor.loss import cross_entropy
from ..tensor.nn import Linear, Module
from ..tensor.ops import concat
from ..tensor.optim import Adam
from ..tensor.tensor import Tensor

__all__ = ["BaselineModel"]


class BaselineModel(Module):
    """Two-layer GNN weights plus the Update math for one model family."""

    def __init__(self, model_name: str, in_dim: int, hidden_dim: int,
                 out_dim: int, num_layers: int = 2, seed: int = 0):
        super().__init__()
        self.model_name = model_name
        rng = np.random.default_rng(seed)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.dims = dims
        self.linears: list[Linear] = []
        for i in range(num_layers):
            d_in = dims[i] * (2 if model_name == "pinsage" else 1)
            layer = Linear(d_in, dims[i + 1], rng=rng)
            self.linears.append(layer)
            setattr(self, f"lin{i}", layer)
        # MAGNN's hierarchical aggregation UDFs carry attention parameters.
        self.magnn_aggregators: list[list] = []
        if model_name == "magnn":
            for i in range(num_layers):
                attn = AttentionAggregator(dims[i], rng=rng)
                setattr(self, f"attn{i}", attn)
                self.magnn_aggregators.append(
                    [MeanAggregator(), attn, MeanAggregator()]
                )

    @property
    def num_layers(self) -> int:
        return len(self.linears)

    def update(self, layer: int, feats: Tensor, nbr_feats: Tensor) -> Tensor:
        """Equation (2) for the model family (Figure 7's Update bodies)."""
        if self.model_name == "gcn":
            out = self.linears[layer](feats.add(nbr_feats))
        elif self.model_name == "pinsage":
            out = self.linears[layer](concat([feats, nbr_feats], axis=-1))
        else:  # magnn
            out = self.linears[layer](nbr_feats)
        return out.relu() if layer < self.num_layers - 1 else out

    def train_step(self, logits: Tensor, labels: np.ndarray,
                   mask: np.ndarray | None, optimizer: Adam) -> float:
        """Loss + backward + optimizer step; returns the loss value."""
        loss = cross_entropy(logits, labels, mask)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()
