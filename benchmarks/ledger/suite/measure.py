"""Measurement helpers shared by the workloads: medians and tails,
repeated set-up, operation loops with failure accounting, leak checks."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import statistics
import threading
import time
import traceback
from dataclasses import dataclass

from .hostspeed import NOMINAL_MS

__all__ = [
    "Ctx", "Result", "Timed", "LeakGuard", "median", "tail", "iqr_frac",
    "timed", "repeat_setup", "run_epochs", "closes",
]

SHM_DIR = "/dev/shm"
MIN_OPS = 3              # timed operations per pass, however slow they are
UNATTRIBUTED_LIMIT = 0.15


@dataclass
class Ctx:
    """One pass of one workload: its frozen sizes and run parameters."""

    workload: str
    cfg: dict
    seed: int
    seconds: float
    workdir: str           # scratch inside the checkout, removed afterwards
    setup_repeats: int
    ref_ops: int
    tracer: object = None  # a spans.Tracer in the traced pass
    enforce_timing: bool = True

    def timing_check(self, result: "Result", ok: bool, message: str) -> None:
        """A threshold on a measured time: a violation when the suite
        command runs at full size, otherwise only a note (see run.py)."""
        if ok:
            return
        if self.enforce_timing:
            result.violations.append(message)
        else:
            result.notes.setdefault("timing", []).append(message)

    def check_overhead(self, result: "Result", traced: list[float],
                       before: list[float], after: list[float]) -> None:
        """Publish ``trace.overhead_frac``: median traced operation over
        the median of the untraced reference operations run ``before``
        and ``after`` the traced section, minus 1.  It is held to 10% —
        but on this host a burst of noise moves one such ratio by 15%
        with nothing changed, so the check compares each half of the
        traced section with the reference block next to it and fails
        only when both halves are over."""
        result.put("trace.overhead_frac",
                   median(traced) / median(before + after) - 1.0)
        mid = len(traced) // 2
        halves = [median(traced[:mid] or traced) / median(before) - 1.0,
                  median(traced[mid:]) / median(after) - 1.0]
        self.timing_check(
            result, min(halves) <= 0.10,
            f"tracing overhead exceeds 10% in both halves of the traced "
            f"section ({halves[0]:.1%}, {halves[1]:.1%})")


def median(xs) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def tail(xs) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; with ten or fewer samples, the maximum."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 100.0, 0.0
    if n <= 10:
        return 100.0, float(xs[-1])
    return 100.0 * (n - 10) / n, float(xs[n - 11])


def iqr_frac(xs) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    mid = statistics.median(xs)
    return float((q[2] - q[0]) / mid) if mid else 0.0


class Timed:
    """Wall seconds of some operations, each with the host-speed
    calibration reading (ms) taken around it, if any was."""

    def __init__(self, seconds=(), calibration=()):
        self.seconds = list(seconds)
        self.calibration = list(calibration)

    def __add__(self, other: "Timed") -> "Timed":
        return Timed(self.seconds + other.seconds,
                     self.calibration + other.calibration)

    def ms(self, scaled: bool = False) -> list[float]:
        """Milliseconds per operation: raw, or scaled to the nominal
        host (``raw * NOMINAL_MS / calibration``) when readings exist."""
        if scaled and self.calibration:
            return [s * 1e3 * NOMINAL_MS / c
                    for s, c in zip(self.seconds, self.calibration)]
        return [s * 1e3 for s in self.seconds]


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Result:
    """What one pass of one workload hands back to the orchestrator."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}     # sample count beside a metric
        self.spread: dict[str, float] = {}    # see put()
        self.violations: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.losses: list[float] = []         # per operation, for the
        #                                       cross-pass bitwise check
        self.notes: dict = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def put(self, name: str, value, samples=None) -> None:
        """Record a metric; with the ``samples`` it is the median of,
        also their count and an estimate of how far that median would
        move on a rerun: IQR / median / sqrt(n)."""
        self.metrics[name] = float(value)
        if samples is not None and len(samples):
            self.samples[name] = len(samples)
            self.spread[name] = iqr_frac(samples) / math.sqrt(len(samples))

    def to_dict(self) -> dict:
        return {
            "metrics": self.metrics, "samples": self.samples,
            "spread": self.spread, "violations": self.violations,
            "attempted": self.attempted, "failed": self.failed,
            "losses": self.losses, "notes": self.notes,
        }


def repeat_setup(build, teardown, repeats: int, speed=None):
    """Build the workload ``repeats`` times, tearing down all but the
    last; returns ``(state, [seconds per build])``.  Set-up is repeated
    so its median is steadier than one reading.  With a ``HostSpeed``,
    each build is scaled by the calibration readings around it."""
    seconds = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        around = [speed.sample() for _ in range(3)] if speed is not None else []
        state, s = timed(build)
        if speed is not None:
            around += [speed.sample() for _ in range(3)]
            s *= NOMINAL_MS / median(around)
        seconds.append(s)
    return state, seconds


def run_epochs(epoch_fn, first_epoch: int, result: Result, *,
               seconds: float | None = None, count: int | None = None,
               speed=None):
    """Call ``epoch_fn(epoch) -> loss`` for ``count`` epochs, or until
    ``seconds`` have passed (at least ``MIN_OPS``).  An epoch that raises
    or returns a non-finite loss is a failed operation; a raise also
    ends the loop.  With a ``HostSpeed``, one calibration reading is
    taken between epochs, outside their timed regions, and each epoch is
    paired with the mean of the readings on either side of it.  Returns
    ``(Timed, losses)``."""
    durations, losses, readings = [], [], []
    deadline = time.perf_counter() + (seconds or 0.0)
    epoch = first_epoch
    while True:
        if count is not None:
            if len(durations) >= count:
                break
        elif time.perf_counter() >= deadline and len(durations) >= MIN_OPS:
            break
        if speed is not None:
            readings.append(speed.sample())
        t0 = time.perf_counter()
        try:
            loss = float(epoch_fn(epoch))
        except Exception:  # the suite must report the failure, not die
            result.violations.append(
                f"epoch {epoch} raised:\n{traceback.format_exc()}"
            )
            result.attempted += 1
            result.failed += 1
            break
        durations.append(time.perf_counter() - t0)
        losses.append(loss)
        result.attempted += 1
        if not math.isfinite(loss):
            result.failed += 1
        epoch += 1
    if speed is not None:
        readings.append(speed.sample())
    paired = [(a + b) / 2.0 for a, b in zip(readings, readings[1:])]
    return Timed(durations, paired[:len(durations)]), losses


def closes(ctx: Ctx, result: Result, rest_name: str, wall: float,
           parts: dict) -> None:
    """Time-tree closure: publish ``parts`` (metric name -> seconds) and
    ``rest_name`` = wall minus their sum, so the parts plus the remainder
    equal the traced wall exactly; the remainder is held to
    ``UNATTRIBUTED_LIMIT`` of the wall."""
    for name, value in parts.items():
        result.put(name, value)
    rest = wall - sum(parts.values())
    result.put(rest_name, rest)
    frac = rest / wall if wall > 0 else 0.0
    result.put("trace.unattributed_frac", frac)
    ctx.timing_check(result, frac <= UNATTRIBUTED_LIMIT,
                     f"{rest_name} is {frac:.1%} of the traced operation, "
                     f"above {UNATTRIBUTED_LIMIT:.0%}")


class LeakGuard:
    """Threads, child processes and shared-memory segments alive now,
    to compare against after the workload has torn down."""

    def __init__(self):
        self.threads = threading.active_count()
        self.shm = self._segments()

    @staticmethod
    def _segments() -> set:
        try:
            return set(os.listdir(SHM_DIR))
        except OSError:
            return set()

    def leaks(self, settle: float = 1.0) -> dict:
        """Counts of what outlived the workload (waits up to ``settle``
        seconds for threads and children that are still exiting)."""
        gc.collect()
        deadline = time.perf_counter() + settle
        while time.perf_counter() < deadline and (
            threading.active_count() > self.threads
            or multiprocessing.active_children()
        ):
            time.sleep(0.02)
        return {
            "threads": max(threading.active_count() - self.threads, 0),
            "procs": len(multiprocessing.active_children()),
            "shm": len(self._segments() - self.shm),
        }

    def check(self, result: Result) -> None:
        for kind, n in self.leaks().items():
            result.check(n == 0, f"{n} leaked {kind} after teardown")
