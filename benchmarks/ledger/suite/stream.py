"""``stream_ondisk``: sampled mini-batch training from an on-disk dataset.

Untraced: ``MiniBatchTrainer.train_epoch`` over an ``OnDiskDataset`` with
the CLI's default prefetch setting and no modeled link.  Traced: an
inline driver walks the same batches through ``plan_epoch``,
``build_seed_blocks``, ``compact_blocks``, ``gather_features`` /
``gather_labels``, ``run_local_blocks``, loss, backward and optimizer,
one span each.  Batch sampling is a pure function of (seed, epoch,
batch), so the prefetching trainer, a synchronous trainer and the inline
driver must produce bitwise-equal losses.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from repro.core import MiniBatchTrainer, build_seed_blocks
from repro.datasets.synthetic import ShardedSyntheticSpec
from repro.loader import compact_blocks, plan_epoch, run_local_blocks
from repro.models import gcn
from repro.storage import OnDiskDataset, write_synthetic_ondisk
from repro.tensor import Adam, Tensor, cross_entropy

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

TREE = {
    "loader.plan": "loader.plan_s",
    "core.sample": "core.sample_s",
    "loader.compact": "loader.compact_s",
    "storage.gather": "storage.gather_s",
    "core.forward": "core.forward_s",
    "tensor.loss": "tensor.loss_s",
    "tensor.backward": "tensor.backward_s",
    "tensor.optim": "tensor.optim_s",
}


def _write(ctx: Ctx) -> str:
    cfg = ctx.cfg
    root = os.path.join(ctx.workdir, "ondisk")
    write_synthetic_ondisk(root, ShardedSyntheticSpec(
        num_vertices=cfg["vertices"], num_edges=cfg["edges"],
        feat_dim=cfg["feat_dim"], num_classes=cfg["classes"],
        rows_per_shard=cfg["rows_per_shard"], seed=ctx.seed,
    ))
    return root


def _pool_mask(ctx: Ctx, ds) -> np.ndarray:
    """The fixed pool of train seeds one epoch covers."""
    train = np.flatnonzero(np.asarray(ds.train_mask))
    rng = np.random.default_rng(ctx.seed)
    pool = rng.choice(train, size=min(ctx.cfg["pool"], train.size),
                      replace=False)
    mask = np.zeros(ds.num_vertices, dtype=bool)
    mask[pool] = True
    return mask


class _Trainer:
    """A fresh model, its optimizer and a ``MiniBatchTrainer`` over
    ``ds`` with the given prefetch depth (0 = synchronous loader)."""

    def __init__(self, ctx: Ctx, ds, mask, prefetch_depth: int):
        cfg = ctx.cfg
        self.mask = mask
        self.model, self.opt = _model_and_optimizer(ctx, ds)
        self.stats = []
        self.trainer = MiniBatchTrainer(
            self.model, ds, batch_size=cfg["batch_size"],
            fanouts=cfg["fanouts"], prefetch_depth=prefetch_depth,
            num_workers=cfg["num_workers"], seed=ctx.seed,
        )

    def epoch(self, epoch: int) -> float:
        stats = self.trainer.train_epoch(optimizer=self.opt, mask=self.mask,
                                         epoch=epoch)
        self.stats.append(stats)
        return stats.loss


def _model_and_optimizer(ctx: Ctx, ds):
    model = gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=ctx.seed)
    return model, Adam(model.parameters(), lr=LR)


class _State(_Trainer):
    """Full set-up: generate + write + open the dataset, build the
    trainer with the default prefetch setting, run the warm-up epochs."""

    def __init__(self, ctx: Ctx):
        self.root = _write(ctx)
        ds = OnDiskDataset(self.root)
        super().__init__(ctx, ds, _pool_mask(ctx, ds),
                         ctx.cfg["prefetch_depth"])
        self.warm_losses = [self.epoch(e) for e in range(ctx.cfg["warmup"])]
        self.next_epoch = ctx.cfg["warmup"]


def _teardown(state: _State) -> None:
    shutil.rmtree(state.root, ignore_errors=True)
    forget_caches()


def untraced(ctx: Ctx) -> Result:
    return run_untraced(ctx, lambda: _State(ctx), _teardown)


def traced(ctx: Ctx) -> Result:
    result = Result()
    guard = LeakGuard()
    speed = HostSpeed()
    tracer, cfg = ctx.tracer, ctx.cfg
    warmup = cfg["warmup"]
    with tracer.span("datasets.generate"):
        root = _write(ctx)
    with tracer.span("storage.open"):
        ds = OnDiskDataset(root)
    result.put("datasets.generate_s", tracer.durations("datasets.generate")[0])
    result.put("storage.open_s", tracer.durations("storage.open")[0])
    mask = _pool_mask(ctx, ds)
    pool = np.flatnonzero(mask)

    # References through the public trainer: the default prefetch
    # setting (what the untraced pass times) and the synchronous loader,
    # the latter split around the traced section.
    prefetch = _Trainer(ctx, ds, mask, cfg["prefetch_depth"])
    sync = _Trainer(ctx, ds, mask, 0)
    pairs = max(ctx.ref_ops // 4, 1)
    _, pre_losses = run_epochs(prefetch.epoch, 0, result, count=warmup)
    _, sync_losses = run_epochs(sync.epoch, 0, result, count=warmup)
    pre, more = run_epochs(prefetch.epoch, warmup, result, count=ctx.ref_ops)
    pre_losses += more
    on, off, more = reference_ops(sync.epoch, warmup, result, pairs, speed)
    sync_losses += more
    steady = prefetch.stats[warmup:]
    result.put("loader.wait_s", median([s.wait_seconds for s in steady]))
    result.put("loader.overlap_efficiency",
               median([s.overlap_efficiency for s in steady]))
    result.put("loader.leaked_threads", guard.leaks(settle=0.5)["threads"])

    model, opt = _model_and_optimizer(ctx, ds)
    strategy = prefetch.trainer.strategy
    hdg, hdg_build_s = timed(model.neighbor_selection, ds.graph,
                             np.random.default_rng(ctx.seed))
    rows = []

    def traced_epoch(epoch: int) -> float:
        model.train()
        losses = []
        gathered = gathered_bytes = inputs = seeds = 0
        with tracer.span("epoch", op=epoch):
            with tracer.span("loader.plan"):
                plans = plan_epoch(pool, cfg["batch_size"], seed=ctx.seed,
                                   epoch=epoch)
            for plan in plans:
                rng = np.random.default_rng(plan.rng_seed)
                with tracer.span("core.sample"):
                    blocks = build_seed_blocks(hdg, plan.seeds,
                                               cfg["fanouts"], rng)
                with tracer.span("loader.compact"):
                    compact = compact_blocks(blocks, plan.seeds)
                with tracer.span("storage.gather"):
                    feats = np.ascontiguousarray(
                        ds.gather_features(compact.input_vertices))
                    labels = ds.gather_labels(plan.seeds)
                with tracer.span("core.forward"):
                    h = run_local_blocks(model, compact, Tensor(feats),
                                         strategy)
                    logits = h[compact.seed_rows]
                with tracer.span("tensor.loss"):
                    loss = cross_entropy(logits, labels)
                with tracer.span("tensor.optim"):
                    opt.zero_grad()
                with tracer.span("tensor.backward"):
                    loss.backward()
                with tracer.span("tensor.optim"):
                    opt.step()
                losses.append(loss.item())
                gathered += compact.input_vertices.size + plan.seeds.size
                gathered_bytes += feats.nbytes + labels.nbytes
                inputs += compact.input_vertices.size
                seeds += plan.seeds.size
        rows.append((gathered, gathered_bytes, inputs / max(seeds, 1)))
        return float(np.mean(losses))

    _, warm_losses = run_epochs(traced_epoch, 0, result, count=warmup)
    warm_trees = len(tracer.op_trees("epoch"))
    ops, losses = run_epochs(traced_epoch, warmup, result,
                             seconds=ctx.seconds, speed=speed)
    more = reference_ops(sync.epoch, warmup + 2 * pairs, result, pairs, speed)
    ref_blocks = (on, more[0])
    on, off, sync_losses = on + more[0], off + more[1], sync_losses + more[2]
    trees = tracer.op_trees("epoch")[warm_trees:]
    walls = [t["wall"] for t in trees]
    traced_ops = Timed(walls, ops.calibration)
    report_traced_ops(result, traced_ops, speed)
    parts = {metric: median([t["parts"].get(span, 0.0) for t in trees])
             for span, metric in TREE.items()}
    closes(ctx, result, "loader.unattributed_s", median(walls), parts)
    # The inline driver has no loader threads, so it is compared with
    # the synchronous trainer, which does the same work in one thread.
    ctx.check_overhead(result, traced_ops.ms(scaled=True),
                       *(block.ms(scaled=True) for block in ref_blocks))
    result.put("trace.ref_op_ms", median(on.ms()), on.ms())
    result.put("obs.off_op_ms", median(off.ms()), off.ms())
    result.put("loader.sync_epoch_s", median(on.ms()) / 1e3)
    # Raw: the two blocks ran back to back, and readings taken between
    # prefetching epochs run slower than between synchronous ones.
    result.put("loader.prefetch_speedup", median(on.ms()) / median(pre.ms()))
    check_bitwise(result, "prefetch vs synchronous loader",
                  pre_losses, sync_losses)
    check_bitwise(result, "prefetching trainer vs inline traced driver",
                  pre_losses, warm_losses + losses)

    steady_rows = rows[warmup:]
    gather_rows = median([r[0] for r in steady_rows])
    result.put("storage.gather_rows", gather_rows)
    result.put("storage.gather_mb_per_s",
               median([r[1] for r in steady_rows]) / 1e6
               / max(parts["storage.gather_s"], 1e-12))
    result.put("loader.input_rows_per_seed",
               median([r[2] for r in steady_rows]))
    result.put("core.hdg_build_s", hdg_build_s)
    result.put("core.hdg_bytes", hdg.nbytes)
    result.put("core.hdg_levels", hdg.depth)

    kernel_probes(result, hdg, ctx.seed)
    result.losses = warm_losses + losses
    check_learning(result, result.losses)
    shutil.rmtree(root, ignore_errors=True)
    forget_caches()
    guard.check(result)
    return result
