"""Figures 15b/15c — pipeline processing on FB91 and Twitter (k = 8):
Aggregation-stage time of distributed training with and without
partial-aggregation + communication overlap.

Expected shape (paper): pipelining always helps; the gain is largest for
MAGNN (big neighborhoods -> big messages) and smallest for PinSage
(top-10 neighborhoods -> little traffic to hide).
"""

from __future__ import annotations

import pytest

from repro.distributed import CommConfig, DistributedTrainer
from repro.experiments import render_rows
from repro.graph import hash_partition
from repro.models import gcn, magnn, pinsage
from repro.tensor import Adam, Tensor

import bench_config as cfg

K = 8


def aggregation_time(model_factory, ds, pipeline, repeats=3):
    model = model_factory()
    trainer = DistributedTrainer(
        model, ds.graph, hash_partition(ds.graph.num_vertices, K),
        pipeline=pipeline, seed=0,
    )
    feats = Tensor(ds.features)
    trainer.train_epoch(feats, ds.labels, Adam(model.parameters(), 0.01), ds.train_mask)
    return min(trainer.aggregation_epoch_time(feats) for _ in range(repeats))


@pytest.mark.parametrize("ds_name", ["fb91", "twitter"])
def test_fig15bc_pipeline(benchmark, report, ds_name):
    ds = cfg.dataset(ds_name)
    factories = {
        "GCN": lambda: gcn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes),
        "PinSage": lambda: pinsage(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                                   **cfg.PINSAGE_PARAMS),
        "MAGNN": lambda: magnn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                               max_instances_per_root=cfg.MAGNN_CAP),
    }
    results: dict[str, tuple[float, float]] = {}

    def run_all():
        for name, factory in factories.items():
            with_pp = aggregation_time(factory, ds, pipeline=True)
            without_pp = aggregation_time(factory, ds, pipeline=False)
            results[name] = (with_pp, without_pp)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [name, f"{w:.4f}", f"{wo:.4f}", f"{(wo - w) / wo:.1%}"]
        for name, (w, wo) in results.items()
    ]
    report(
        f"fig15bc_pipeline_{ds_name}",
        render_rows(
            f"Figure 15b/c ({ds_name}, k=8): Aggregation seconds with/without "
            "pipeline processing",
            ["model", "w/ PP", "w/o PP", "improvement"],
            rows,
        ),
    )
    for name, (w, wo) in results.items():
        assert w <= wo * 1.05, f"pipelining slowed {name} down on {ds_name}"
    # PinSage benefits least: its top-k neighborhoods move little data.
    gains = {name: (wo - w) / wo for name, (w, wo) in results.items()}
    assert gains["PinSage"] <= max(gains["GCN"], gains["MAGNN"]) + 0.05
