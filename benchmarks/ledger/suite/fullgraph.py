"""``gcn_full``, ``gat_full``, ``magnn_full``: full-batch training on the
single-machine engine.

Untraced: ``FlexGraphEngine.train_epoch`` with library defaults.
Traced: the benchmark's own driver runs the same epoch stage by stage
through public calls — ``engine.hdg_for_layer``, ``layer.aggregation``,
``layer.update``, ``cross_entropy``, ``loss.backward``, the optimizer —
each inside a span.  Same seed, same arithmetic: the losses must be
bitwise equal to an untraced reference run of the same epochs.
"""

from __future__ import annotations

from repro import obs
from repro.core import FlexGraphEngine
from repro.datasets import imdb_like, reddit_like
from repro.models import gat, gcn, magnn
from repro.tensor import (
    Adam, Tensor, cross_entropy, get_plan_cache, materialized_bytes,
    peak_materialized_bytes, release_materialized_bytes,
    reset_materialized_bytes,
)

from .hostspeed import HostSpeed
from .kernels import kernel_probes
from .measure import (
    Ctx, LeakGuard, Result, Timed, closes, median, run_epochs, timed,
)
from .sizes import HIDDEN, LR
from .common import (
    check_bitwise, check_learning, forget_caches, reference_ops,
    report_traced_ops, run_untraced,
)

__all__ = ["untraced", "traced"]

#: traced span name -> per-layer metric, in tree order
TREE = {
    "core.selection": "core.selection_s",
    "core.aggregation": "core.aggregation_s",
    "core.update": "core.update_s",
    "tensor.loss": "tensor.loss_s",
    "tensor.backward": "tensor.backward_s",
    "tensor.optim": "tensor.optim_s",
}


def make_dataset(cfg: dict, seed: int):
    if cfg["model"] == "magnn":
        return imdb_like(cfg["movies"], cfg["directors"], cfg["actors"],
                         seed=seed)
    return reddit_like(cfg["vertices"], seed=seed)


def make_model(cfg: dict, ds, seed: int):
    if cfg["model"] == "gcn":
        return gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=seed)
    if cfg["model"] == "gat":
        return gat(ds.feat_dim, HIDDEN, ds.num_classes, seed=seed)
    return magnn(ds.feat_dim, HIDDEN, ds.num_classes,
                 max_instances_per_root=cfg["max_instances_per_root"],
                 seed=seed)


class _State:
    """Dataset, model, engine and optimizer, warmed up."""

    def __init__(self, ctx: Ctx, ds=None, tracer=None):
        self.ds = ds if ds is not None else make_dataset(ctx.cfg, ctx.seed)
        self.feats = Tensor(self.ds.features)
        self.model = make_model(ctx.cfg, self.ds, ctx.seed)
        self.engine = FlexGraphEngine(self.model, self.ds.graph, seed=ctx.seed)
        self.opt = Adam(self.model.parameters(), lr=LR)
        self.hdg_build_s = 0.0
        if tracer is not None:
            # First hdg_for_layer builds (and caches) the HDG; the
            # warm-up epochs below then find it ready either way.
            with tracer.span("core.hdg_build"):
                for i in range(self.model.num_layers):
                    self.engine.hdg_for_layer(i, 0)
            self.hdg_build_s = tracer.durations("core.hdg_build")[-1]
        self.warm_losses = [self.epoch(e) for e in range(ctx.cfg["warmup"])]
        self.next_epoch = ctx.cfg["warmup"]

    def epoch(self, epoch: int) -> float:
        """One epoch through the program's public entry point."""
        ds = self.ds
        return self.engine.train_epoch(self.feats, ds.labels, self.opt,
                                       ds.train_mask, epoch).loss


def untraced(ctx: Ctx) -> Result:
    return run_untraced(ctx, lambda: _State(ctx), lambda state: forget_caches())


def traced(ctx: Ctx) -> Result:
    result = Result()
    guard = LeakGuard()
    speed = HostSpeed()
    tracer = ctx.tracer
    ds, generate_s = timed(make_dataset, ctx.cfg, ctx.seed)
    result.put("datasets.generate_s", generate_s)

    # Untraced reference on an identical state: the bitwise yardstick
    # and the denominator of trace.overhead_frac.
    ref = _State(ctx, ds)
    pairs = max(ctx.ref_ops // 4, 1)     # before the traced section, and after
    on, off, ref_losses = reference_ops(ref.epoch, ref.next_epoch, result,
                                        pairs, speed)
    state = _State(ctx, ds, tracer)
    engine, model, opt = state.engine, state.model, state.opt
    labels, mask = ds.labels, ds.train_mask
    counts = []

    def traced_epoch(epoch: int) -> float:
        model.train()
        mat0 = materialized_bytes()
        work0 = obs.work_snapshot()
        plans0 = get_plan_cache().stats()
        with tracer.span("epoch", op=epoch):
            h = state.feats
            for i, layer in enumerate(model.layers):
                with tracer.span("core.selection"):
                    hdg = engine.hdg_for_layer(i, epoch)
                with tracer.span("core.aggregation"):
                    nbr = layer.aggregation(h, hdg, engine.strategy)
                with tracer.span("core.update"):
                    h = layer.update(h, nbr)
            with tracer.span("tensor.loss"):
                loss = cross_entropy(h, labels, mask)
            with tracer.span("tensor.optim"):
                opt.zero_grad()
            with tracer.span("tensor.backward"):
                loss.backward()
            with tracer.span("tensor.optim"):
                opt.step()
        # Per-edge intermediates die with the tape: release them as the
        # engine does, so the peak is the per-epoch high-water mark.
        release_materialized_bytes(materialized_bytes() - mat0)
        work = obs.work_since(work0)
        plans = get_plan_cache().stats()
        counts.append((plans["hits"] - plans0["hits"],
                       plans["misses"] - plans0["misses"], work["flops"],
                       work["bytes_read"] + work["bytes_written"]))
        return loss.item()

    reset_materialized_bytes()
    ops, losses = run_epochs(traced_epoch, state.next_epoch, result,
                             seconds=ctx.seconds, speed=speed)
    more = reference_ops(ref.epoch, ref.next_epoch + 2 * pairs, result, pairs,
                         speed)
    ref_blocks = (on, more[0])
    on, off, ref_losses = on + more[0], off + more[1], ref_losses + more[2]
    trees = tracer.op_trees("epoch")
    walls = [t["wall"] for t in trees]
    traced_ops = Timed(walls, ops.calibration)
    report_traced_ops(result, traced_ops, speed)
    parts = {metric: median([t["parts"].get(span, 0.0) for t in trees])
             for span, metric in TREE.items()}
    closes(ctx, result, "engine.unattributed_s", median(walls), parts)
    ctx.check_overhead(result, traced_ops.ms(scaled=True),
                       *(block.ms(scaled=True) for block in ref_blocks))
    # The public entry point with obs recording on, and switched off.
    result.put("trace.ref_op_ms", median(on.ms()), on.ms())
    result.put("obs.off_op_ms", median(off.ms()), off.ms())
    check_bitwise(result, "untraced reference vs traced driver",
                  ref_losses, losses)

    hits, misses, flops, work_bytes = zip(*counts)
    result.put("tensor.plan_hits", median(hits))
    result.put("tensor.plan_misses", max(misses))
    result.check(max(misses) == 0,
                 f"steady-state plan misses: {max(misses)} in one epoch")
    result.put("tensor.flops", median(flops))
    result.put("tensor.work_bytes", median(work_bytes))
    result.put("tensor.materialized_peak_bytes", peak_materialized_bytes())
    hdg = engine.hdg_for_layer(0, state.next_epoch)
    result.put("core.hdg_build_s", state.hdg_build_s)
    result.put("core.hdg_bytes", hdg.nbytes)
    result.put("core.hdg_levels", hdg.depth)

    kernel_probes(result, hdg, ctx.seed)
    result.losses = state.warm_losses + losses
    check_learning(result, result.losses)
    forget_caches()
    guard.check(result)
    return result
