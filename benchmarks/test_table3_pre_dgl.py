"""Table 3 — simulating INFA/INHA models in existing systems: DGL vs
Pre+DGL (GAS over a pre-computed expanded graph) vs FlexGraph.

Expected shape (paper): Pre+DGL sits between DGL and FlexGraph on
PinSage; on MAGNN (which DGL cannot express at all) Pre+DGL runs but
FlexGraph's hybrid aggregation still wins.  ``test_table3_counted``
checks it on counted bytes: FlexGraph's peak at most Pre+DGL's and DGL's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DGLEngine, FlexGraphAdapter, PreDGLEngine
from repro.experiments import render_rows

import bench_config as cfg

CASES = [
    ("pinsage", ["reddit", "fb91", "twitter"]),
    ("magnn", ["reddit", "fb91", "twitter"]),
]


def avg_epoch(engine, epochs=2):
    first = engine.run_epoch(0)
    if first.status != "ok":
        return first.cell
    seconds = [engine.run_epoch(e).seconds for e in range(1, 1 + epochs)]
    return f"{float(np.mean(seconds)):.3f}"


@pytest.mark.parametrize("model,datasets", CASES, ids=[c[0] for c in CASES])
def test_table3(benchmark, report, model, datasets):
    rows = []

    def run_all():
        for ds_name in datasets:
            ds = cfg.dataset(ds_name)
            params = cfg.engine_params(model)
            # Table 3's expanded-graph computations ran on the paper's
            # 512 GB testbed; the scaled budget is lifted here so the
            # comparison isolates execution strategy, as in the paper.
            params["memory_budget"] = None
            cells = [ds_name]
            cells.append(avg_epoch(DGLEngine(ds, model, seed=0, **params)))
            cells.append(avg_epoch(PreDGLEngine(ds, model, seed=0, **params)))
            cells.append(avg_epoch(FlexGraphAdapter(ds, model, seed=0, **params)))
            rows.append(cells)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        f"table3_{model}",
        render_rows(
            f"Table 3 ({model}): DGL vs Pre+DGL vs FlexGraph (seconds/epoch)",
            ["dataset", "dgl", "pre+dgl", "flexgraph"],
            rows,
        ),
    )
    for row in rows:
        numeric = [c for c in row[1:] if c not in ("X", "OOM") and not c.startswith(">")]
        flex = float(row[3]) if row[3] not in ("X", "OOM") else None
        pre = float(row[2]) if row[2] not in ("X", "OOM") else None
        assert flex is not None and pre is not None
        # FlexGraph at least as fast as Pre+DGL (modest tolerance for noise).
        assert flex <= pre * 1.2, f"FlexGraph slower than Pre+DGL on {model}/{row[0]}"
        if row[1] not in ("X", "OOM"):
            # Pre+DGL beats plain DGL on PinSage (pre-computation pays off).
            assert pre <= float(row[1]) * 1.2


@pytest.mark.parametrize("model,datasets", CASES, ids=[c[0] for c in CASES])
def test_table3_counted(benchmark, report, model, datasets):
    # Under MEMORY_BUDGET, which no Table 3 cell reaches: the peaks are
    # those the timed table's lifted budget gives.
    benchmark.pedantic(
        cfg.counted_table,
        args=(report, f"table3_{model}_counted",
              f"Table 3 ({model}): peak transient MB in 1 epoch",
              model, datasets, ["dgl", "pre+dgl", "flexgraph"]),
        rounds=1, iterations=1,
    )
