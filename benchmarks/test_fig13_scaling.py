"""Figure 13 — end-to-end performance on multiple machines (1..16
workers, Reddit): FlexGraph vs (modeled) DistDGL and Euler.

Expected shape (paper): FlexGraph scales near-linearly on all three
models; DistDGL remains orders of magnitude slower on GCN; Euler tracks
FlexGraph on PinSage but stays ~2x behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DistDGLEngine, EulerEngine
from repro.datasets import reddit_like
from repro.distributed import CommConfig, flexgraph_scaling, model_baseline_scaling
from repro.experiments import render_rows
from repro.graph import hash_partition
from repro.models import gcn, magnn, pinsage

import bench_config as cfg

WORKER_COUNTS = [1, 2, 4, 8, 16]

#: Figure 13 uses a larger Reddit stand-in so per-worker compute dominates
#: the per-call overhead of the simulated workers, and a network model
#: calibrated so the compute/comm ratio matches the paper's testbed
#: (3.25 GB/s NICs against tens-of-seconds epochs).
FIG13_COMM = CommConfig(latency=2e-6, bandwidth=2e9)
_FIG13_DS = None


def fig13_dataset():
    global _FIG13_DS
    if _FIG13_DS is None:
        _FIG13_DS = reddit_like(num_vertices=8000, avg_degree=50)
    return _FIG13_DS


def factory_for(model_name: str, ds):
    if model_name == "gcn":
        return lambda: gcn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes)
    if model_name == "pinsage":
        return lambda: pinsage(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                               **cfg.PINSAGE_PARAMS)
    return lambda: magnn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                         max_instances_per_root=cfg.MAGNN_CAP)


def baseline_curve(engine_cls, ds, model_name):
    """Measure the baseline's single-machine epoch, then model scaling
    with its (non-overlapped, full-feature) communication pattern."""
    params = cfg.engine_params(model_name)
    params["time_limit"] = None
    engine = engine_cls(ds, model_name, seed=0, **params)
    rep = engine.run_epoch(0)
    if rep.status != "ok":
        return None
    # Full remote-neighbor feature traffic: one feature row per bottom-
    # level edge, per layer (no partial aggregation, §5).
    bytes_per_epoch = 2 * ds.graph.num_edges * ds.feat_dim * 8
    return model_baseline_scaling(
        rep.seconds, WORKER_COUNTS, bytes_per_epoch,
        messages_per_epoch=ds.graph.num_edges,
        comm_config=FIG13_COMM,
    )


@pytest.mark.parametrize("model_name", ["gcn", "pinsage", "magnn"])
def test_fig13_scaling(benchmark, report, model_name):
    ds = fig13_dataset()
    curves: dict[str, list] = {}

    def run_all():
        curves["flexgraph"] = flexgraph_scaling(
            factory_for(model_name, ds), ds, WORKER_COUNTS,
            lambda k: hash_partition(ds.graph.num_vertices, k),
            comm_config=FIG13_COMM,
        )
        if model_name == "gcn":
            curves["distdgl"] = baseline_curve(DistDGLEngine, ds, model_name)
        elif model_name == "pinsage":
            curves["distdgl"] = baseline_curve(DistDGLEngine, ds, model_name)
            curves["euler"] = baseline_curve(EulerEngine, ds, model_name)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, pts in curves.items():
        if pts is None:
            rows.append([name] + ["OOM"] * len(WORKER_COUNTS))
        else:
            rows.append([name] + [f"{p.seconds:.3f}" for p in pts])
    report(
        f"fig13_scaling_{model_name}",
        render_rows(
            f"Figure 13 ({model_name}, reddit): simulated epoch seconds vs workers",
            ["system"] + [f"k={k}" for k in WORKER_COUNTS],
            rows,
        ),
    )

    flex = [p.seconds for p in curves["flexgraph"]]
    # Near-linear scaling: 16 workers should cut epoch time substantially
    # (per-worker runtime overhead bounds the speedup at this scale).
    assert flex[-1] < flex[0] * 0.6, f"no scaling for {model_name}: {flex}"
    # Monotone-ish: allow small non-monotonicity from timing noise.
    assert flex[2] < flex[0], f"4 workers slower than 1 for {model_name}"
    for name, pts in curves.items():
        if name != "flexgraph" and pts is not None:
            # FlexGraph stays ahead at every worker count.
            for fp, bp in zip(curves["flexgraph"], pts):
                assert fp.seconds <= bp.seconds * 1.2
