#!/usr/bin/env python
"""Extending FlexGraph: write a *new* GNN as an NAU program.

The point of NAU (§3.2) is that models outside the built-in set need no
framework changes — you provide the three stages.  This script builds a
"two-hop attention network" from scratch:

* **NeighborSelection**: each vertex's i-th neighbor type is the ring of
  vertices at distance exactly i (depth-3 HDGs, one schema leaf per
  ring) — a JK-Net-style neighborhood: the ring selection emits its
  instances as arrays and the public instance-array builder packs them;
* **Aggregation**: a hand-written UDF (mean within rings, via the
  public scatter kernel) and built-in attention across the ring types;
* **Update**: GRU-flavored gated combination of h and the neighborhood,
  hand-written — any function of ``(feats, nbr_feats)`` works.

Next to it, ``MeanSageLayer`` shows the other way to write Update: it is
linear in the aggregate, so the layer *declares* the two weights and
the tail, and the engine decides whether to project before or after the
reduction (docs/nau_programming_guide.md §3).

Run:  python examples/custom_nau_model.py
"""

import numpy as np

from repro import obs
from repro.core import (
    Aggregator,
    FlexGraphEngine,
    GNNLayer,
    HDG,
    NAUModel,
    SchemaTree,
    SelectionScope,
    hdg_from_instance_arrays,
    select_distance_ring_neighbors,
)
from repro.datasets import reddit_like
from repro.models import gcn
from repro.obs.analysis import backend_report
from repro.tensor import Adam, Linear, Tensor, scatter_mean


class RingMean(Aggregator):
    """A custom Aggregation UDF (docs/nau_programming_guide.md §2).

    ``plan`` is the reduction plan of the HDG level being reduced — the
    engine fetches it from the HDG, so the structure setup is paid once
    and reused every epoch.  Only the scatter form is written; the
    default ``fused`` gathers the member rows and calls it.
    """

    name = "ring_mean"
    supports_fused = False
    supports_dense = False

    def sparse(self, values, plan, weights=None):
        return scatter_mean(values, plan=plan)


class TwoHopAttentionLayer(GNNLayer):
    """Mean-per-ring, attention-across-rings, gated update."""

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        # Bottom-up UDFs: mean over ring members (the custom UDF), mean
        # per slot, attention over the two ring types (Figure 6's level
        # loop).
        super().__init__(aggregators=[RingMean(), "mean", "attention"],
                         dim=in_dim)
        self.w_self = Linear(in_dim, out_dim, rng=rng)
        self.w_nbr = Linear(in_dim, out_dim, rng=rng)
        self.w_gate = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def update(self, feats: Tensor, nbr_feats: Tensor) -> Tensor:
        gate = self.w_gate(feats).sigmoid()
        out = gate * self.w_self(feats) + (1.0 - gate) * self.w_nbr(nbr_feats)
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.w_self.out_features


class MeanSageLayer(GNNLayer):
    """Update declared linear in the aggregate: ReLU(W_self h + W_nbr a + b).

    No ``update()`` here.  ``linear_update`` names the two bias-free
    weights, ``combine`` is everything after the projections, and
    ``GNNLayer`` reduces at whichever width costs fewer multiply-adds —
    here the 32 projected columns instead of the 64 input ones.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators=["mean"])
        self.w_self = Linear(in_dim, out_dim, rng=rng)
        self.w_nbr = Linear(in_dim, out_dim, bias=False, rng=rng)
        self.activation = activation

    def linear_update(self) -> tuple[Tensor, Tensor]:
        return self.w_self.weight, self.w_nbr.weight

    def combine(self, self_proj: Tensor, nbr_proj: Tensor) -> Tensor:
        # the bias is added once, after the reduction — it never moves
        out = self_proj + nbr_proj + self.w_self.bias
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.w_self.out_features


class TwoHopAttentionNet(NAUModel):
    """The NAU program: rings-of-distance-1-and-2 neighborhoods."""

    category = "INHA"

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        layers = [
            TwoHopAttentionLayer(in_dim, hidden_dim, rng=rng),
            TwoHopAttentionLayer(hidden_dim, out_dim, activation=False, rng=rng),
        ]
        super().__init__(layers, SelectionScope.STATIC, name="TwoHopAttn")

    def neighbor_selection(self, graph, rng) -> HDG:
        # The nbr_udf of Figure 5: one instance per (root, ring) with the
        # ring members as leaves, emitted as the arrays (instance_roots,
        # instance_types, leaf_flat, leaf_counts) the HDG builder takes.
        instances = select_distance_ring_neighbors(graph, max_distance=2)
        schema = SchemaTree(("ring_1", "ring_2"))
        roots = np.arange(graph.num_vertices, dtype=np.int64)
        return hdg_from_instance_arrays(schema, roots, *instances,
                                        graph.num_vertices)


def main() -> None:
    # Small graph: the ring selection runs one BFS per vertex.
    dataset = reddit_like(num_vertices=250, num_labels=4, avg_degree=12)
    print(f"dataset: {dataset}")

    model = TwoHopAttentionNet(dataset.feat_dim, 32, dataset.num_classes)
    engine = FlexGraphEngine(model, dataset.graph, seed=0)
    features = Tensor(dataset.features)

    hdg = engine.hdg_for_layer(0)
    print(f"custom HDG: {hdg}")

    optimizer = Adam(model.parameters(), lr=0.01)
    engine.fit(features, dataset.labels, optimizer, num_epochs=15,
               mask=dataset.train_mask, verbose=True)
    acc = engine.evaluate(features, dataset.labels, dataset.test_mask)
    print(f"\ncustom model test accuracy: {acc:.3f}")

    # Baseline comparison: the same budget of epochs with plain GCN.
    base = gcn(dataset.feat_dim, 32, dataset.num_classes)
    base_engine = FlexGraphEngine(base, dataset.graph)
    base_engine.fit(features, dataset.labels, Adam(base.parameters(), 0.01),
                    num_epochs=15, mask=dataset.train_mask)
    base_acc = base_engine.evaluate(features, dataset.labels, dataset.test_mask)
    print(f"GCN baseline test accuracy:  {base_acc:.3f}")

    # The declared-linear layer over the plain input graph: the trace
    # says which operator order each layer's aggregation ran in.
    rng = np.random.default_rng(0)
    sage = NAUModel([
        MeanSageLayer(dataset.feat_dim, 32, rng=rng),
        MeanSageLayer(32, dataset.num_classes, activation=False, rng=rng),
    ], name="MeanSage")
    sage_engine = FlexGraphEngine(sage, dataset.graph)
    obs.reset()
    sage_engine.fit(features, dataset.labels, Adam(sage.parameters(), 0.01),
                    num_epochs=15, mask=dataset.train_mask)
    sage_acc = sage_engine.evaluate(features, dataset.labels, dataset.test_mask)
    print(f"declared-linear test accuracy: {sage_acc:.3f}")
    for row in backend_report(obs.to_dict()["events"])["rows"]:
        print(f"  {row['level']} level: {row['order']}, reduced at width "
              f"{row['width']} ({row['count']} calls)")


if __name__ == "__main__":
    main()
