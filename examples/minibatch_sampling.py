#!/usr/bin/env python
"""Sampled mini-batch training: the FlexGraph-native fan-out sampler.

Section 7.1 of the paper shows why naive mini-batch systems (Euler,
DistDGL) collapse: a 2-layer GCN batch needs the *full* 2-hop
neighborhood of its seeds, which approaches the whole graph on dense
inputs.  Because HDGs make neighborhoods first-class, FlexGraph can
instead cap every root's fan-in per layer (GraphSAGE-style sampling) —
blocks stay small and epochs stream in constant memory.

This script contrasts, on the same dense Reddit-like graph:

1. full-batch training (the paper's mode);
2. sampled mini-batch training with fan-outs [8, 8];
3. what the *unsampled* 2-hop block of one batch would have cost.

Run:  python examples/minibatch_sampling.py
"""

import numpy as np

from repro.core import FlexGraphEngine, MiniBatchTrainer, build_seed_blocks
from repro.datasets import reddit_like
from repro.models import gcn
from repro.tensor import Adam, Tensor


def main() -> None:
    dataset = reddit_like(num_vertices=1500, avg_degree=40, seed=4)
    print(f"dataset: {dataset}")
    features = Tensor(dataset.features)

    # How big is an unsampled 2-hop block?  (The mini-batch baselines'
    # problem, quantified.)
    from repro.baselines.saga_nn import DistDGLEngine

    seeds = np.arange(64)
    block = DistDGLEngine._expand_k_hop(dataset.graph, seeds, 2)
    print(
        f"\nfull 2-hop block of a 64-seed batch: {block.size} of "
        f"{dataset.graph.num_vertices} vertices "
        f"({block.size / dataset.graph.num_vertices:.0%} of the graph!)"
    )

    # 1. Full-batch FlexGraph.
    model_fb = gcn(dataset.feat_dim, 32, dataset.num_classes, seed=0,
                   aggregator="mean")
    engine = FlexGraphEngine(model_fb, dataset.graph)
    opt = Adam(model_fb.parameters(), lr=0.01)
    for epoch in range(8):
        stats = engine.train_epoch(features, dataset.labels, opt,
                                   dataset.train_mask, epoch)
    fb_acc = engine.evaluate(features, dataset.labels, dataset.test_mask)
    print(f"\nfull-batch GCN:   test acc {fb_acc:.3f} "
          f"({stats.times.total * 1000:.0f} ms/epoch)")

    # 2. Sampled mini-batch FlexGraph.
    model_mb = gcn(dataset.feat_dim, 32, dataset.num_classes, seed=0,
                   aggregator="mean")
    trainer = MiniBatchTrainer(model_mb, dataset.graph, batch_size=128,
                               fanouts=[8, 8], seed=0)
    opt = Adam(model_mb.parameters(), lr=0.01)
    for epoch in range(8):
        mb_stats = trainer.train_epoch(features, dataset.labels, opt,
                                       dataset.train_mask, epoch)
    mb_acc = trainer.evaluate(features, dataset.labels, dataset.test_mask)
    sampled_blocks = build_seed_blocks(trainer.hdgs.model_level(0)[0], seeds,
                                       trainer.fanouts, trainer.hdgs.rng)
    input_vertices = sampled_blocks[0][1]
    print(f"sampled GCN:      test acc {mb_acc:.3f} "
          f"({mb_stats.seconds * 1000:.0f} ms/epoch, "
          f"{mb_stats.num_batches} batches)")
    print(f"sampled block of the same 64-seed batch: "
          f"{input_vertices.size} vertices "
          f"({input_vertices.size / block.size:.0%} of the full block)")


if __name__ == "__main__":
    main()
