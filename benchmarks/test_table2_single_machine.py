"""Table 2 — single-machine one-epoch runtime of GCN / PinSage / MAGNN
across PyTorch, DGL, DistDGL, Euler and FlexGraph.

Expected shape (paper): FlexGraph fastest everywhere; mini-batch engines
(DistDGL, Euler) collapse on full-neighborhood GCN; only FlexGraph (and
PyTorch, on the smaller graphs) can run MAGNN; Euler is the best
baseline on PinSage.  ``test_table2_counted`` checks the memory half on
counted bytes: which cells OOM, and FlexGraph's peak at most every
baseline's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ENGINES
from repro.experiments import measure_epoch_cell, render_rows

import bench_config as cfg

ENGINE_ORDER = ["pytorch", "dgl", "distdgl", "euler", "flexgraph"]

#: (model, datasets) pairs exactly as in Table 2
TABLE2_ROWS = [
    ("gcn", ["reddit", "fb91", "twitter"]),
    ("pinsage", ["reddit", "fb91", "twitter"]),
    ("magnn", ["imdb", "reddit", "fb91", "twitter"]),
]


def measure_cell(engine_name: str, model: str, ds) -> str:
    # Warm once (HDG/COO builds), then average two measured epochs —
    # except for engines whose first epoch IS the honest cost (mini-batch
    # extrapolation, OOM probes) where one run suffices.
    engine = ENGINES[engine_name](ds, model, seed=0, **cfg.engine_params(model))
    return measure_epoch_cell(engine, epochs=2)


@pytest.mark.parametrize("model,datasets", TABLE2_ROWS, ids=[r[0] for r in TABLE2_ROWS])
def test_table2(benchmark, report, model, datasets):
    rows = []

    def run_all():
        for ds_name in datasets:
            ds = cfg.dataset(ds_name)
            row = [ds_name]
            for engine_name in ENGINE_ORDER:
                row.append(measure_cell(engine_name, model, ds))
            rows.append(row)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        f"table2_{model}",
        render_rows(
            f"Table 2 ({model}): runtime in seconds for 1 epoch, single machine",
            ["dataset"] + ENGINE_ORDER,
            rows,
        ),
    )
    # Shape assertions (the paper's qualitative claims).
    for row in rows:
        flex = float(row[-1].lstrip("~"))
        for engine_name, cell in zip(ENGINE_ORDER[:-1], row[1:-1]):
            if cell in ("X", "OOM") or cell.startswith(">"):
                continue
            # 1.5x margin absorbs single-run timing noise under load; the
            # recorded tables show the actual gaps.
            assert flex <= float(cell.lstrip("~")) * 1.5, (
                f"FlexGraph not fastest on {model}/{row[0]} vs {engine_name}"
            )


@pytest.mark.parametrize("model,datasets", TABLE2_ROWS, ids=[r[0] for r in TABLE2_ROWS])
def test_table2_counted(benchmark, report, model, datasets):
    benchmark.pedantic(
        cfg.counted_table,
        args=(report, f"table2_{model}_counted",
              f"Table 2 ({model}): peak transient MB in 1 epoch, single machine",
              model, datasets, ENGINE_ORDER),
        rounds=1, iterations=1,
    )
