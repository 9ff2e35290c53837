"""What the workloads share: the untraced pass of the five training
workloads, the reporting of timed epochs, the loss checks, and the reset
of the program's process-global caches."""

from __future__ import annotations

import gc
import math

from repro import obs
from repro.tensor import get_plan_cache

from .hostspeed import HostSpeed
from .measure import (
    Ctx, LeakGuard, Result, Timed, median, repeat_setup, run_epochs, tail,
)

__all__ = ["run_untraced", "report_traced_ops", "reference_ops",
           "check_learning", "check_bitwise", "forget_caches"]


def forget_caches() -> None:
    """Clear the plan cache and the obs registry, so the next set-up
    starts as cold as a fresh process would."""
    get_plan_cache().clear()
    obs.reset()
    gc.collect()


def run_untraced(ctx: Ctx, build, teardown) -> Result:
    """The untraced pass: ``build()`` (repeated, for ``setup_s``) returns
    a warmed-up state with ``epoch(e) -> loss`` through the program's
    public entry point, ``warm_losses`` and ``next_epoch``; its epochs
    are then timed for ``ctx.seconds``.  Unless the workload's sizes say
    ``scale_times=False``, times are scaled to the nominal host (see
    ``hostspeed``) and the raw median goes into the notes."""
    result = Result()
    guard = LeakGuard()
    speed = HostSpeed() if ctx.cfg.get("scale_times", True) else None
    state, setups = repeat_setup(build, teardown, ctx.setup_repeats, speed)
    result.put("setup_s", median(setups), setups)
    ops, losses = run_epochs(state.epoch, state.next_epoch, result,
                             seconds=ctx.seconds, speed=speed)
    if speed is not None:
        result.notes["raw_op_p50_ms"] = median(ops.ms())
        result.notes["host_speed_factor"] = speed.factor
    ms = ops.ms(scaled=True)
    result.put("op_p50_ms", median(ms), ms)
    result.losses = state.warm_losses + losses
    check_learning(result, result.losses)
    teardown(state)
    state = None   # released before the leak check, as a caller would
    guard.check(result)
    return result


def reference_ops(epoch_fn, first_epoch: int, result: Result, pairs: int,
                  speed: HostSpeed | None = None):
    """Untraced reference operations through the public entry point, in
    ``pairs`` of (recording on, recording off via ``obs.disable()``).
    Alternating them — and calling this both before and after the traced
    section — lets host drift hit all three alike.  Returns
    ``(on, off, losses)`` with the times as ``Timed``."""

    def toggled(epoch: int) -> float:
        if (epoch - first_epoch) % 2:
            obs.disable()
        try:
            return epoch_fn(epoch)
        finally:
            obs.enable()

    ops, losses = run_epochs(toggled, first_epoch, result, count=2 * pairs,
                             speed=speed)
    on = Timed(ops.seconds[0::2], ops.calibration[0::2])
    off = Timed(ops.seconds[1::2], ops.calibration[1::2])
    return on, off, losses


def report_traced_ops(result: Result, ops: Timed,
                      speed: HostSpeed | None = None) -> None:
    """Median, tail and count of the traced operations (raw), and the
    host-speed factor measured alongside them, if any."""
    ms = ops.ms()
    result.put("trace.op_ms", median(ms), ms)
    pct, value = tail(ms)
    result.put("op_tail_ms", value)
    result.put("op_tail_pct", pct)
    result.put("ops_timed", len(ms))
    if speed is not None:
        result.put("host.speed_factor", speed.factor)


def check_learning(result: Result, losses: list[float]) -> None:
    first, last = losses[0], losses[-1]
    result.check(math.isfinite(last), f"final loss {last} is not finite")
    result.check(last < first,
                 f"final loss {last} is not below the first epoch's {first}")


def check_bitwise(result: Result, what: str, a: list[float],
                  b: list[float]) -> None:
    """Losses of two runs of the same epochs must agree bit for bit."""
    n = min(len(a), len(b))
    result.check(n > 0, f"{what}: no common epochs to compare")
    for i in range(n):
        if a[i] != b[i]:
            result.violations.append(
                f"{what}: loss differs at epoch {i}: {a[i]!r} vs {b[i]!r}"
            )
            return
