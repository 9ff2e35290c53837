"""Figure 14 — effectiveness of hybrid aggregation: SA vs SA+FA vs HA on
FB91 and Twitter.

Expected shape (paper): feature fusion (SA+FA) wins big over pure
scatter ops for all models; the extra dense-tensor step (HA) helps only
MAGNN (GCN/PinSage have trivial schema trees, so HA == SA+FA).

The oracle asserts on the work that causes those gains, counted over one
forward after warm-up: bytes of per-edge intermediates materialized and
bytes written by the tensor ops.  Both are deterministic.  Aggregation
wall seconds are only rendered in the table.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core import FlexGraphEngine
from repro.models import gcn, magnn, pinsage
from repro.tensor import Tensor, materialized_bytes, reset_materialized_bytes

import bench_config as cfg
from conftest import render_table

STRATEGIES = ["sa", "sa+fa", "ha"]


def counted_forward(model_factory, ds, strategy):
    """(bytes materialized, bytes written, Aggregation seconds) of one
    forward after a warm-up forward (which builds the HDG)."""
    engine = FlexGraphEngine(model_factory(), ds.graph, strategy=strategy,
                             seed=0)
    feats = Tensor(ds.features)
    engine.forward(feats)
    reset_materialized_bytes()
    mark = obs.work_snapshot()
    engine.forward(feats)
    return (materialized_bytes(), obs.work_since(mark)["bytes_written"],
            engine.last_times.aggregation)


@pytest.mark.parametrize("ds_name", ["fb91", "twitter"])
def test_fig14(benchmark, report, ds_name):
    ds = cfg.dataset(ds_name)
    factories = {
        "GCN": lambda: gcn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes),
        "PinSage": lambda: pinsage(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                                   **cfg.PINSAGE_PARAMS),
        "MAGNN": lambda: magnn(ds.feat_dim, cfg.HIDDEN_DIM, ds.num_classes,
                               max_instances_per_root=cfg.MAGNN_CAP),
    }
    results: dict[str, dict[str, tuple[int, float, float]]] = {}

    def run_all():
        for name, factory in factories.items():
            results[name] = {
                s: counted_forward(factory, ds, s) for s in STRATEGIES
            }

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    mb = 1e6
    rows = [
        [name]
        + [f"{results[name][s][0] / mb:.1f} / {results[name][s][1] / mb:.1f}"
           for s in STRATEGIES]
        + [f"{results[name][s][2]:.4f}" for s in STRATEGIES]
        for name in factories
    ]
    report(
        f"fig14_hybrid_aggregation_{ds_name}",
        render_table(
            f"Figure 14 ({ds_name}): one forward per strategy, MB "
            f"materialized / written, and Aggregation seconds",
            ["model", "SA MB", "SA+FA MB", "HA MB", "SA s", "SA+FA s", "HA s"],
            rows,
        ),
    )
    for name in factories:
        sa, safa, ha = (results[name][s][:2] for s in STRATEGIES)
        for i, count in enumerate(("materialized", "written")):
            assert safa[i] < sa[i], (
                f"feature fusion should beat scatter ops on bytes {count} "
                f"({name})")
            assert ha[i] <= safa[i], f"HA {count} more than SA+FA ({name})"
    # The dense-op step pays off only where the schema tree is non-trivial.
    assert results["MAGNN"]["ha"][0] < results["MAGNN"]["sa+fa"][0]
    for name in ("GCN", "PinSage"):
        assert results[name]["ha"][:2] == results[name]["sa+fa"][:2], name
