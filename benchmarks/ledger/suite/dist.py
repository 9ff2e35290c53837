"""``dist_proc``: the ``gcn_full`` task on real worker processes.

Untraced: ``MultiprocessTrainer.train_epoch`` over a ``hash_partition``
with one worker per core.  Traced: the workers run in other processes,
so the benchmark's spans sit around the public calls it can make —
partitioning, construction, each epoch, close — and the epoch is split
with the trainer's own ``MultiprocessEpochStats``: the slowest rank's
compute and comm, and the wait that is left (barriers, parent-side
work).  The same task then runs in-process, on one worker process and
on the simulated trainer, which must agree on the loss to 1e-9.
"""

from __future__ import annotations

import resource
from contextlib import nullcontext
import time

import numpy as np

from repro import obs
from repro.core import FlexGraphEngine
from repro.datasets import reddit_like
from repro.distributed import DistributedTrainer, KVStore, MultiprocessTrainer
from repro.graph import hash_partition
from repro.models import gcn
from repro.tensor import Adam, Tensor

from .kernels import kernel_probes
from .measure import Ctx, LeakGuard, Result, Timed, median, run_epochs, timed
from .sizes import HIDDEN, LR
from .common import (
    check_learning, forget_caches, reference_ops, report_traced_ops,
    run_untraced,
)


class _State:
    """Dataset, partition, model and a started ``MultiprocessTrainer``."""

    def __init__(self, ctx: Ctx, ds=None, k=None, tracer=None):
        cfg = ctx.cfg
        self.ds = ds if ds is not None else reddit_like(cfg["vertices"],
                                                        seed=ctx.seed)
        self.feats = Tensor(self.ds.features)
        n = self.ds.graph.num_vertices
        k = cfg["k"] if k is None else k
        self.stats = []
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        with span("graph.partition"):
            part = hash_partition(n, k)
        with span("distributed.init"):
            ds = self.ds
            self.model = gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=ctx.seed)
            self.opt = Adam(self.model.parameters(), lr=LR)
            self.trainer = MultiprocessTrainer(self.model, ds.graph, part,
                                               seed=ctx.seed)
        self.warm_seconds, self.warm_losses = [], []
        for e in range(cfg["warmup"]):
            loss, s = timed(self.epoch, e)
            self.warm_losses.append(loss)
            self.warm_seconds.append(s)
        self.next_epoch = cfg["warmup"]

    def epoch(self, epoch: int) -> float:
        ds = self.ds
        stats = self.trainer.train_epoch(self.feats, ds.labels, self.opt,
                                         ds.train_mask, epoch)
        self.stats.append(stats)
        return stats.loss

    def close(self) -> None:
        self.trainer.close()


def _teardown(state: _State) -> None:
    state.close()
    forget_caches()


def untraced(ctx: Ctx) -> Result:
    return run_untraced(ctx, lambda: _State(ctx), _teardown)


def _side_run(ctx: Ctx, result: Result, epoch_fn, epochs: int):
    """Warm-up plus ``epochs`` timed epochs of a comparison runtime."""
    warmup = ctx.cfg["warmup"]
    ops, losses = run_epochs(epoch_fn, 0, result, count=warmup + epochs)
    return median(ops.seconds[warmup:]), losses


def _kv_rates(result: Result, array: np.ndarray, reps: int = 5) -> None:
    """MB/s of a KVStore set, and of a pull copied out of the segment."""
    kv = KVStore()
    try:
        kv.set("probe", array)  # creates the segment untimed
        sets, pulls = [], []
        for _ in range(reps):
            sets.append(timed(kv.set, "probe", array)[1])
            t0 = time.perf_counter()
            np.array(kv.pull_batch(["probe"])["probe"])
            pulls.append(time.perf_counter() - t0)
    finally:
        kv.close()
    mb = array.nbytes / 1e6
    result.put("distributed.kv_set_mb_per_s", mb / median(sets))
    result.put("distributed.kv_pull_mb_per_s", mb / median(pulls))


def traced(ctx: Ctx) -> Result:
    result = Result()
    guard = LeakGuard()
    tracer, cfg = ctx.tracer, ctx.cfg
    ds, generate_s = timed(reddit_like, cfg["vertices"], seed=ctx.seed)
    result.put("datasets.generate_s", generate_s)
    state = _State(ctx, ds, tracer=tracer)
    result.put("graph.partition_s", tracer.durations("graph.partition")[0])
    result.put("distributed.init_s", tracer.durations("distributed.init")[0])

    # Untraced reference: the same trainer, the same call, no span;
    # half before the traced section and half after it.
    pairs = max(ctx.ref_ops // 4, 1)
    on, off, ref_losses = reference_ops(state.epoch, state.next_epoch, result,
                                        pairs)
    first_traced = len(state.stats)

    def traced_epoch(epoch: int) -> float:
        with tracer.span("epoch", op=epoch):
            return state.epoch(epoch)

    _, losses = run_epochs(traced_epoch, len(state.stats), result,
                           seconds=ctx.seconds)
    traced_stats = state.stats[first_traced:]
    more = reference_ops(state.epoch, len(state.stats), result, pairs)
    ref_blocks = (on, more[0])
    on, off = on + more[0], off + more[1]
    traced_ops = Timed(tracer.durations("epoch"))
    walls = traced_ops.seconds
    report_traced_ops(result, traced_ops)
    # The slowest rank sets the epoch: its compute and comm, and what is
    # left of the wall (barrier skew, parent-side loss and optimizer).
    compute, comm = [], []
    for stats in traced_stats:
        slowest = int(np.argmax(stats.compute_seconds + stats.comm_seconds))
        compute.append(float(stats.compute_seconds[slowest]))
        comm.append(float(stats.comm_seconds[slowest]))
    result.put("distributed.compute_s", median(compute))
    result.put("distributed.comm_s", median(comm))
    # A named remainder, so nothing is unattributed and the 15% limit of
    # the in-process trees does not apply (it measures ~15% here).
    result.put("distributed.wait_s",
               median(walls) - median(compute) - median(comm))
    ctx.check_overhead(result, traced_ops.ms(), *(block.ms() for block in ref_blocks))
    result.put("trace.ref_op_ms", median(on.ms()), on.ms())
    result.put("obs.off_op_ms", median(off.ms()), off.ms())
    result.put("distributed.bytes_per_epoch",
               median([s.total_bytes for s in traced_stats]))
    result.put("distributed.messages_per_epoch",
               median([s.total_messages for s in traced_stats]))
    epoch_s = median(walls)

    with tracer.span("distributed.close"):
        state.close()
    result.put("distributed.close_s", tracer.durations("distributed.close")[0])
    leaks = guard.leaks()
    result.put("distributed.leaked_procs", leaks["procs"])
    result.put("distributed.leaked_shm", leaks["shm"])
    result.notes["threads_after_close"] = leaks["threads"]
    # Reaped children so far are exactly this trainer's workers.
    result.put("distributed.worker_rss_mb",
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    result.put("distributed.spawn_s", state.warm_seconds[0] - epoch_s)
    proc_losses = state.warm_losses + ref_losses + losses + more[2]
    feats = state.feats
    state = None  # collected with its queues' feeder threads

    # The same task three other ways, one after another.
    side = cfg["side_epochs"]
    n = ds.graph.num_vertices

    def fresh():
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=ctx.seed)
        return model, Adam(model.parameters(), lr=LR)

    model, opt = fresh()
    engine = FlexGraphEngine(model, ds.graph, seed=ctx.seed)
    single_s, _ = _side_run(ctx, result, lambda e: engine.train_epoch(
        feats, ds.labels, opt, ds.train_mask, e).loss, side)
    result.put("distributed.single_epoch_s", single_s)
    result.put("distributed.scaling_eff", single_s / (cfg["k"] * epoch_s))
    hdg = engine.hdg_for_layer(0, 0)
    result.put("core.hdg_bytes", hdg.nbytes)
    result.put("core.hdg_levels", hdg.depth)

    model, opt = fresh()
    sim = DistributedTrainer(model, ds.graph, hash_partition(n, cfg["k"]),
                             seed=ctx.seed)
    compare = min(len(proc_losses), cfg["warmup"] + max(side, ctx.ref_ops))
    sim_s, sim_losses = _side_run(ctx, result, lambda e: sim.train_epoch(
        feats, ds.labels, opt, ds.train_mask, e).loss,
        compare - cfg["warmup"])
    result.put("distributed.sim_epoch_s", sim_s)
    for i, (a, b) in enumerate(zip(proc_losses, sim_losses)):
        if abs(a - b) > 1e-9 * abs(b):
            result.violations.append(
                f"process vs simulated trainer: loss differs at epoch {i}: "
                f"{a!r} vs {b!r}")
            break

    k1 = _State(ctx, ds, k=1)
    try:
        k1_ops, _ = run_epochs(k1.epoch, k1.next_epoch, result, count=side)
    finally:
        k1.close()
        k1 = None
    result.put("distributed.k1_epoch_s", median(k1_ops.seconds))

    _kv_rates(result, ds.features)
    kernel_probes(result, hdg, ctx.seed)
    result.losses = proc_losses
    check_learning(result, result.losses)
    forget_caches()
    guard.check(result)
    return result
