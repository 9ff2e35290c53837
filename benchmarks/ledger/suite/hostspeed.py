"""Host-speed calibration for the epoch-time metrics.

The build host is a 2-vCPU microVM whose speed drifts: the same pure
Python loop has been seen to take 0.14 s and 0.22 s in back-to-back
processes, and a whole GCN epoch 0.26 s and 0.36 s an hour apart.  That
drift is slow (seconds to minutes), so every timed operation of a
training workload is paired with one run of a fixed ~10 ms calibration
loop taken just before it, and the end-to-end times are reported
*scaled to a nominal host*: ``raw * NOMINAL_MS / calibration_ms``.  The
loop mixes what the workloads do — a fancy-index gather into a fresh
array (page faults included), a segmented ``reduceat``, a small matmul,
an elementwise pass and some interpreter work — so it slows down when
they do.  Raw times and the measured factor are kept beside the scaled
ones in the results file.

Two workloads are *not* scaled (``scale_times=False`` in their sizes).
``serve_mixed``: almost half of a request's latency is the batcher's
fixed 2 ms window, which does not move with host speed.  ``dist_proc``:
with both cores busy its raw epoch held within 5% over the hours the
single-process epochs drifted by 35%, and a loop run by the idle parent
between epochs says nothing about two loaded workers (they also stay
busy for ~0.1 s after an epoch returns, slowing the loop 2-4x): scaled,
its run-to-run spread doubled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["HostSpeed", "NOMINAL_MS"]

#: the calibration loop's time on the build host when this suite was
#: frozen; only a unit — scaled times read as milliseconds on that host
NOMINAL_MS = 10.0


class HostSpeed:
    """Runs the calibration loop on demand and keeps every reading."""

    def __init__(self):
        rng = np.random.default_rng(0)      # fixed: not a workload input
        self._x = rng.standard_normal((40_000, 16))
        self._idx = rng.integers(0, 40_000, size=60_000)
        self._offsets = np.arange(0, 60_000, 10)
        self._w = rng.standard_normal((16, 16))
        self.samples_ms: list[float] = []
        self.sample()                       # first touch, discarded
        self.samples_ms.clear()

    def sample(self) -> float:
        """One run of the loop; returns (and records) its milliseconds."""
        t0 = time.perf_counter()
        gathered = self._x[self._idx]
        reduced = np.add.reduceat(gathered, self._offsets, axis=0)
        out = reduced @ self._w
        np.exp(np.minimum(out, 1.0), out=out)
        total = 0
        for i in range(6_000):
            total += i
        ms = (time.perf_counter() - t0) * 1e3
        self.samples_ms.append(ms)
        return ms

    @property
    def factor(self) -> float:
        """Median reading over nominal: above 1 means a slow host."""
        if not self.samples_ms:
            return 1.0
        return statistics.median(self.samples_ms) / NOMINAL_MS
