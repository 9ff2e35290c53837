"""Benchmark configuration: dataset scale, resource envelopes, model
hyper-parameters.

Everything is scaled down consistently from the paper's testbed (16 x
96-core machines, 512 GB RAM, billion-edge graphs) to a laptop-sized
Python run.  ``MEMORY_BUDGET`` stands in for the 512 GB RAM: engines that
materialize per-edge or per-instance intermediates at these graph sizes
exceed it exactly where the paper reports OOM (``COUNTED_OOM``, checked
by :func:`counted_table`).  ``TIME_LIMIT`` stands in for the paper's
half-hour cap on one epoch (the ">3600s" cells).
"""

from __future__ import annotations

from repro.baselines import ENGINES
from repro.datasets import load_dataset
from repro.experiments import render_rows

#: dataset scale used by all benchmarks ("small" keeps the suite minutes-long)
SCALE = "bench"

#: per-step transient allocation budget (bytes) for baseline engines
MEMORY_BUDGET = 300_000_000

#: the cells that exceed MEMORY_BUDGET, as (engine, model, dataset):
#: PyTorch's naive MAGNN instance tensor, in float32
COUNTED_OOM = {("pytorch", "magnn", "fb91"), ("pytorch", "magnn", "twitter")}

#: epoch wall-clock limit (seconds); extrapolated epochs above it report ">"
TIME_LIMIT = 10.0

#: hidden dimension for all two-layer models
HIDDEN_DIM = 32

#: PinSage neighbor selection (the paper's setup: 10 walks x 3 hops, top-10)
PINSAGE_PARAMS = {"num_traces": 10, "n_hops": 3, "top_k": 10}

#: MAGNN instance cap per (root, metapath) — bounds HDG size at bench scale
MAGNN_CAP = 10

#: mini-batch engines: batch size and measured batches before extrapolating
MINIBATCH_PARAMS = {"batch_size": 32, "max_batches": 3}

_CACHE: dict[str, object] = {}


def dataset(name: str):
    """Session-cached benchmark dataset."""
    if name not in _CACHE:
        _CACHE[name] = load_dataset(name, scale=SCALE)
    return _CACHE[name]


def engine_params(model_name: str) -> dict:
    """Per-model kwargs shared by every engine."""
    params: dict = {
        "hidden_dim": HIDDEN_DIM,
        "memory_budget": MEMORY_BUDGET,
        "time_limit": TIME_LIMIT,
    }
    if model_name == "pinsage":
        params.update(PINSAGE_PARAMS)
    if model_name == "magnn":
        params["max_instances_per_root"] = MAGNN_CAP
    params.update(MINIBATCH_PARAMS)
    return params


def counted_table(report, name: str, title: str, model: str,
                  datasets: list[str], engine_names: list[str]) -> None:
    """Run one epoch per cell under ``MEMORY_BUDGET`` with no time limit,
    so only the deterministic memory projection decides a cell; save the
    peak MB per engine and assert the paper's memory claims on it."""
    params = dict(engine_params(model), time_limit=None)
    reports = {}
    rows = []
    for ds_name in datasets:
        ds = dataset(ds_name)
        row = [ds_name]
        for engine_name in engine_names:
            rep = ENGINES[engine_name](ds, model, seed=0, **params).run_epoch(0)
            reports[engine_name, ds_name] = rep
            mb = f"{rep.peak_memory_mb:.1f}"
            row.append({"ok": mb, "oom": f"OOM ({mb})"}.get(rep.status, rep.cell))
        rows.append(row)
    report(name, render_rows(title, ["dataset"] + engine_names, rows))
    oom = {(e, model, d) for (e, d), rep in reports.items() if rep.status == "oom"}
    expected = {
        cell for cell in COUNTED_OOM
        if cell[0] in engine_names and cell[1] == model and cell[2] in datasets
    }
    assert oom == expected, f"OOM cells {sorted(oom)}, expected {sorted(expected)}"
    for ds_name in datasets:
        flex = reports["flexgraph", ds_name]
        assert flex.status == "ok", f"FlexGraph {flex.cell} on {model}/{ds_name}"
        for engine_name in engine_names:
            rep = reports[engine_name, ds_name]
            if rep.status == "ok":
                assert flex.peak_memory_mb <= rep.peak_memory_mb, (
                    f"FlexGraph holds more than {engine_name} on {model}/{ds_name}: "
                    f"{flex.peak_memory_mb:.1f} > {rep.peak_memory_mb:.1f} MB"
                )
