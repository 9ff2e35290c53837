#!/usr/bin/env python
"""Dynamic graphs: training MAGNN while the graph evolves (§7.2).

The paper's Pre+DGL comparison ends with a caveat: if the graph evolves,
the expanded graph cannot be pre-computed — but NAU's NeighborSelection
can.  This script streams edge changes into a movie graph and keeps
training MAGNN across them:

1. build the initial metapath HDGs;
2. every few epochs, new movie-actor edges arrive and stale ones leave;
3. the maintainer repairs the instance set incrementally (work is
   proportional to the change) and training continues on the fresh HDG.

Run:  python examples/dynamic_graphs.py
"""

import time

import numpy as np

from repro.core import FlexGraphEngine, MetapathHDGMaintainer
from repro.core.selection import build_metapath_hdg
from repro.datasets import imdb_like
from repro.graph import Metapath
from repro.models import magnn
from repro.tensor import Adam, Tensor, cross_entropy


def main() -> None:
    dataset = imdb_like(num_movies=3000, num_directors=400, num_actors=1500)
    graph = dataset.graph
    print(f"dataset: {dataset}")

    metapaths = [Metapath((0, 1, 0), "M-D-M"), Metapath((0, 2, 0), "M-A-M")]
    maintainer = MetapathHDGMaintainer(graph, metapaths)
    print(f"initial instances: {maintainer.num_instances}")

    model = magnn(dataset.feat_dim, 32, dataset.num_classes, metapaths=metapaths)
    optimizer = Adam(model.parameters(), lr=0.01)
    features = Tensor(dataset.features)
    rng = np.random.default_rng(5)

    hdg = maintainer.build_hdg()
    movies = np.flatnonzero(graph.vertex_types == 0)
    actors = np.flatnonzero(graph.vertex_types == 2)

    for era in range(4):
        # Train a few epochs on the current HDG (injected, no re-selection).
        engine = FlexGraphEngine(model, maintainer.graph)
        engine.hdgs.pin(hdg)  # reuse the maintained HDG
        for epoch in range(3):
            logits = engine.forward(features, 0)
            loss = cross_entropy(logits, dataset.labels, dataset.train_mask)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        print(f"era {era}: loss={loss.item():.4f} "
              f"({maintainer.num_instances} instances)")

        # The graph evolves: new castings arrive, a few old edges rot.
        a = rng.choice(movies, 6)
        b = rng.choice(actors, 6)
        added = np.concatenate([np.stack([a, b], 1), np.stack([b, a], 1)])
        src, dst = maintainer.graph.edges()
        idx = rng.choice(src.size, 4, replace=False)
        removed = np.stack([src[idx], dst[idx]], 1)

        t0 = time.perf_counter()
        # Repair the instance set only; HDG compaction is deferred to the
        # next training step (both approaches pay it equally).
        maintainer.apply_edge_changes(added=added, removed=removed, build=False)
        incr = time.perf_counter() - t0
        t0 = time.perf_counter()
        build_metapath_hdg(maintainer.graph, metapaths)
        full = time.perf_counter() - t0
        hdg = maintainer.build_hdg()
        print(f"  change batch: {maintainer.last_delta} instances touched; "
              f"incremental repair {incr * 1000:.1f}ms vs full re-match "
              f"{full * 1000:.1f}ms")

    acc = FlexGraphEngine(model, maintainer.graph).evaluate(
        features, dataset.labels, dataset.test_mask
    )
    print(f"\nfinal test accuracy on the evolved graph: {acc:.3f}")


if __name__ == "__main__":
    main()
