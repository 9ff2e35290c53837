#!/usr/bin/env python
"""Dynamic graphs: training MAGNN while the graph evolves (§7.2).

The paper's Pre+DGL comparison ends with a caveat: if the graph evolves,
the expanded graph cannot be pre-computed — but NAU's NeighborSelection
can repair its HDGs.  This script streams edge changes into a movie graph
and keeps training MAGNN across them:

1. the model's NeighborSelection builds the initial metapath HDG;
2. every few epochs, new movie-actor edges arrive and stale ones leave;
3. ``model.reselect`` selects again only the roots the change touched
   and splices them into the HDG — array for array the HDG a fresh
   selection builds — and training continues on it.

Run:  python examples/dynamic_graphs.py
"""

import time

import numpy as np

from repro.core import FlexGraphEngine
from repro.datasets import imdb_like
from repro.graph import Metapath
from repro.models import magnn
from repro.tensor import Adam, Tensor, cross_entropy


def main() -> None:
    dataset = imdb_like(num_movies=3000, num_directors=400, num_actors=1500)
    graph = dataset.graph
    print(f"dataset: {dataset}")

    metapaths = [Metapath((0, 1, 0), "M-D-M"), Metapath((0, 2, 0), "M-A-M")]
    model = magnn(dataset.feat_dim, 32, dataset.num_classes, metapaths=metapaths)
    optimizer = Adam(model.parameters(), lr=0.01)
    features = Tensor(dataset.features)
    rng = np.random.default_rng(5)

    hdg = model.neighbor_selection(graph, rng)
    print(f"initial instances: {hdg.num_instances}")
    movies = np.flatnonzero(graph.vertex_types == 0)
    actors = np.flatnonzero(graph.vertex_types == 2)

    for era in range(4):
        # Train a few epochs on the current HDG (pinned, no re-selection).
        engine = FlexGraphEngine(model, graph)
        engine.hdgs.pin(hdg)
        for epoch in range(3):
            logits = engine.forward(features, 0)
            loss = cross_entropy(logits, dataset.labels, dataset.train_mask)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        print(f"era {era}: loss={loss.item():.4f} "
              f"({hdg.num_instances} instances)")

        # The graph evolves: new castings arrive, a few old edges rot.
        a = rng.choice(movies, 6)
        b = rng.choice(actors, 6)
        added = np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)])
        src, dst = graph.edges()
        idx = rng.choice(src.size, 4, replace=False)
        removed = np.stack([src[idx], dst[idx]], 1)
        graph = graph.with_edges_removed(removed).with_edges_added(added)

        t0 = time.perf_counter()
        hdg, touched = model.reselect(hdg, graph, np.concatenate([added, removed]))
        repair = time.perf_counter() - t0
        t0 = time.perf_counter()
        fresh = model.neighbor_selection(graph, rng)
        full = time.perf_counter() - t0
        same = np.array_equal(fresh.leaf_vertices, hdg.leaf_vertices)
        print(f"  change batch: {touched.size} roots changed; repair "
              f"{repair * 1000:.1f}ms vs full re-selection {full * 1000:.1f}ms "
              f"({'identical' if same else 'DIFFERENT'} HDGs)")

    acc = FlexGraphEngine(model, graph).evaluate(
        features, dataset.labels, dataset.test_mask
    )
    print(f"\nfinal test accuracy on the evolved graph: {acc:.3f}")


if __name__ == "__main__":
    main()
