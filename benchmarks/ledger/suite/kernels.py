"""ns/element of each reduction kernel on a workload's own index.

Forward plus backward through one planned reduction (the steady-state
path once the plan cache is warm), d=16, over a prefix of the bottom
HDG level's destination index — the structure the workload's own
aggregation reduces over, not a synthetic one.
"""

from __future__ import annotations

import time

import numpy as np

from repro.tensor import (
    ReductionPlan, Tensor, scatter_add, scatter_max, scatter_mean,
    scatter_min, scatter_softmax, segment_reduce_csr,
)

from .measure import Result, median
from .sizes import KERNEL_DIM, KERNEL_EDGES

__all__ = ["kernel_probes"]

_SCATTERS = {
    "tensor.scatter_add_ns": scatter_add,
    "tensor.scatter_mean_ns": scatter_mean,
    "tensor.scatter_max_ns": scatter_max,
    "tensor.scatter_min_ns": scatter_min,
    "tensor.scatter_softmax_ns": scatter_softmax,
}


def kernel_probes(result: Result, hdg, seed: int, reps: int = 3) -> None:
    """Publish ``tensor.*_ns`` for the bottom level of ``hdg``."""
    index = np.ascontiguousarray(hdg.sub_graph(hdg.max_level)[0][:KERNEL_EDGES])
    if index.size == 0:
        return
    edges, n = index.size, int(index.max()) + 1
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((edges, KERNEL_DIM))
    g_out = rng.standard_normal((n, KERNEL_DIM))
    g_edge = rng.standard_normal((edges, KERNEL_DIM))
    plan = ReductionPlan.from_index(index, n)
    seg_plan = ReductionPlan.from_segments(plan.offsets, plan.gather, edges)

    def scatter_case(fn, grad):
        def run():
            fn(Tensor(values, requires_grad=True), index, n,
               plan=plan).backward(grad)
        return run

    def segment_case():
        segment_reduce_csr(Tensor(values, requires_grad=True), plan.offsets,
                           plan.gather, "sum", plan=seg_plan).backward(g_out)

    cases = {
        name: scatter_case(fn, g_edge if fn is scatter_softmax else g_out)
        for name, fn in _SCATTERS.items()
    }
    cases["tensor.segment_sum_ns"] = segment_case
    for name, case in cases.items():
        case()  # builds the plan's lazy matrices untimed
        seconds = []
        for _ in range(reps):
            t0 = time.perf_counter()
            case()
            seconds.append(time.perf_counter() - t0)
        result.put(name, median(seconds) * 1e9 / (edges * KERNEL_DIM))
