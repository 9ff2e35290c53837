"""Table 4 — per-stage breakdown (NeighborSelection / Aggregation /
Update) of the three models on the Twitter stand-in, single machine.

Expected shape (paper): GCN spends nothing in NeighborSelection (the
input graph is the HDG) and ~98% in Aggregation; PinSage and MAGNN spend
>40% selecting neighbors; Update is always a small fraction.

``test_table4_counted`` asserts that shape on counted work — the FLOPs
and bytes the tensor ops and the selection UDFs record inside each
stage's spans — which is deterministic; ``test_table4_breakdown``
measures wall seconds.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core import FlexGraphEngine
from repro.core.engine import STAGE_SPANS
from repro.experiments import render_rows
from repro.models import gcn, magnn, pinsage
from repro.obs.profile import OP_COUNTER_PREFIX
from repro.tensor import Adam, Tensor

import bench_config as cfg

#: the three forward stages, in Table 4's column order
STAGES = ("neighbor_selection", "aggregation", "update")
#: the op the engine records for handing a layer its HDG: the selection
#: stage's only work when NeighborSelection selects nothing
HANDED = OP_COUNTER_PREFIX + "neighbor_selection.hdg.bytes"


def _factories(ds):
    return {
        "GCN": lambda: gcn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes),
        "PinSage": lambda: pinsage(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                                   **cfg.PINSAGE_PARAMS),
        "MAGNN": lambda: magnn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                               max_instances_per_root=cfg.MAGNN_CAP),
    }


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


def counted_breakdown(model_factory, ds, epochs=3):
    """``(work, handed)`` per epoch over epochs that rebuild the HDGs,
    as :func:`stage_breakdown` runs them: ``work[0]`` the FLOPs and
    ``work[1]`` the bytes (read + written) recorded inside each stage's
    spans, in :data:`STAGES` order; ``handed`` the bytes of handing the
    HDG to each layer's aggregation, part of the selection stage."""
    model = model_factory()
    engine = FlexGraphEngine(model, ds.graph, seed=0)
    optimizer = Adam(model.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    obs.reset()
    for epoch in range(epochs):
        engine.invalidate_hdgs()  # count NeighborSelection every epoch
        engine.train_epoch(feats, ds.labels, optimizer, ds.train_mask, epoch)
    column = {STAGE_SPANS[stage]: i for i, stage in enumerate(STAGES)}
    work = np.zeros((2, len(STAGES)))
    for span in obs.get_registry().spans:
        i = column.get(span.name)
        if i is not None:
            work[0, i] += span.attrs.get("flops", 0.0)
            work[1, i] += (span.attrs.get("bytes_read", 0.0)
                           + span.attrs.get("bytes_written", 0.0))
    return work / epochs, obs.counter(HANDED).total / epochs


def test_table4_counted(report):
    ds = cfg.dataset("twitter")
    results = {name: counted_breakdown(factory, ds)
               for name, factory in _factories(ds).items()}

    def shares(row):
        total = row.sum()
        return " / ".join(f"{x / total:.0%}" if total else "-" for x in row)

    report(
        "table4_counted",
        render_rows(
            "Table 4 (counted): share of FLOPs and of bytes per stage on "
            "Twitter (Nbr.Selection / Aggregation / Update)",
            ["model", "FLOPs", "bytes", "selected MB"],
            [[name, shares(work[0]), shares(work[1]),
              f"{(work[1, 0] - handed) / 1e6:.1f}"]
             for name, (work, handed) in results.items()],
        ),
    )

    # GCN selects nothing: its selection stage only hands the input
    # graph, as its HDG, to aggregation.
    work, handed = results["GCN"]
    assert work[0, 0] == 0
    assert work[1, 0] == handed
    for name in ("PinSage", "MAGNN"):
        work, handed = results[name]
        selected = work[1, 0] - handed
        assert selected / work[1].sum() > 0, f"{name} selects nothing"
    for name, (work, _) in results.items():
        for i, what in enumerate(("FLOPs", "bytes")):
            assert work[i, 2] < work[i, 1], (
                f"{name}: Update should do fewer {what} than Aggregation")
