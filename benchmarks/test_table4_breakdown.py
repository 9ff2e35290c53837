"""Table 4 — per-stage breakdown (NeighborSelection / Aggregation /
Update) of the three models on the Twitter stand-in, single machine.

Expected shape (paper): GCN spends nothing in NeighborSelection (the
input graph is the HDG) and ~98% in Aggregation; PinSage and MAGNN spend
>40% selecting neighbors; Update is always a small fraction.
"""

from __future__ import annotations

import numpy as np

from repro.core import FlexGraphEngine
from repro.experiments import render_rows
from repro.models import gcn, magnn, pinsage
from repro.tensor import Adam, Tensor

import bench_config as cfg


def stage_breakdown(model_factory, ds, epochs=3):
    model = model_factory()
    engine = FlexGraphEngine(model, ds.graph, seed=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    ns = agg = upd = 0.0
    for epoch in range(epochs):
        engine.invalidate_hdgs()  # count NeighborSelection every epoch
        stats = engine.train_epoch(feats, ds.labels, optimizer, ds.train_mask, epoch)
        ns += stats.times.neighbor_selection
        agg += stats.times.aggregation
        upd += stats.times.update
    return np.array([ns, agg, upd]) / epochs


def test_table4_breakdown(benchmark, report):
    ds = cfg.dataset("twitter")
    results = {}

    def run_all():
        results["GCN"] = stage_breakdown(
            lambda: gcn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes), ds
        )
        results["PinSage"] = stage_breakdown(
            lambda: pinsage(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                            **cfg.PINSAGE_PARAMS), ds
        )
        results["MAGNN"] = stage_breakdown(
            lambda: magnn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                          max_instances_per_root=cfg.MAGNN_CAP), ds
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, (ns, agg, upd) in results.items():
        total = ns + agg + upd
        rows.append([
            name,
            f"{ns:.3f} ({ns / total:.0%})",
            f"{agg:.3f} ({agg / total:.0%})",
            f"{upd:.3f} ({upd / total:.0%})",
        ])
    report(
        "table4_breakdown",
        render_rows(
            "Table 4: breakdown of 3 stages on Twitter (seconds, share of forward)",
            ["model", "Nbr.Selection", "Aggregation", "Update"],
            rows,
        ),
    )

    # Shape assertions.
    gcn_ns, gcn_agg, gcn_upd = results["GCN"]
    assert gcn_ns / (gcn_ns + gcn_agg + gcn_upd) < 0.05   # ~0% selection
    for name in ("PinSage", "MAGNN"):
        ns, agg, upd = results[name]
        assert ns / (ns + agg + upd) > 0.25, f"{name} selection share too small"
    for name, (ns, agg, upd) in results.items():
        assert upd < agg, f"{name}: Update should be cheaper than Aggregation"
