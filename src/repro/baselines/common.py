"""Shared baseline-engine infrastructure.

The paper compares FlexGraph against PyTorch, DGL, DistDGL and Euler.
None of those are available offline, so ``repro.baselines`` re-implements
the *algorithms* the paper attributes to each system (per-edge sparse
tensor ops, GAS/SAGA-NN with kernel fusion, mini-batch k-hop sampling,
pre-expanded graphs).  Every engine trains the same model math with the
same numpy/autograd substrate, so runtime differences reflect execution
strategy — which is exactly what the paper's comparisons measure.

Resource envelopes are scaled down alongside the datasets:

* :class:`MemoryMeter` imposes a per-step transient-allocation budget
  standing in for the testbed's 512 GB RAM; exceeding it raises
  :class:`OutOfMemoryError` (the paper's "OOM" cells).
* Engines may report ``status="timeout"`` when an extrapolated epoch
  exceeds the time limit (the paper's ">3600s" cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OutOfMemoryError",
    "MemoryMeter",
    "EpochReport",
    "BaselineEngine",
    "MODEL_NAMES",
]

MODEL_NAMES = ("gcn", "pinsage", "magnn")


class OutOfMemoryError(Exception):
    """A projected allocation exceeds the engine's memory budget
    (the "OOM" cells of Table 2)."""


class MemoryMeter:
    """Tracks transient allocations against a budget.

    ``charge`` is called *before* a large intermediate is materialized
    with its projected size; ``release`` returns the bytes when the
    intermediate dies.  ``peak`` records the high-water mark.
    """

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = budget_bytes
        self.current = 0
        self.peak = 0

    def charge(self, nbytes: int, what: str = "") -> None:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot charge negative bytes")
        self.current += nbytes
        self.peak = max(self.peak, self.current)
        if self.budget_bytes is not None and self.current > self.budget_bytes:
            raise OutOfMemoryError(
                f"{what or 'allocation'} needs {self.current / 1e6:.0f} MB, "
                f"budget is {self.budget_bytes / 1e6:.0f} MB"
            )

    def release(self, nbytes: int) -> None:
        self.current = max(0, self.current - int(nbytes))

    def reset(self) -> None:
        self.current = 0


@dataclass
class EpochReport:
    """Outcome of one (possibly extrapolated) training epoch."""

    engine: str
    model: str
    dataset: str
    seconds: float
    loss: float | None = None
    status: str = "ok"          # ok | oom | unsupported | timeout
    detail: str = ""
    extrapolated: bool = False  # True when mini-batch engines measured a
                                # prefix of batches and scaled up
    peak_memory_mb: float = 0.0

    @property
    def cell(self) -> str:
        """Render as a Table 2-style cell."""
        if self.status == "unsupported":
            return "X"
        if self.status == "oom":
            return "OOM"
        if self.status == "timeout":
            return f">{self.seconds:.0f}"
        prefix = "~" if self.extrapolated else ""
        return f"{prefix}{self.seconds:.3f}"


class BaselineEngine:
    """Base class for competitor engines.

    Subclasses set ``name`` and implement ``_prepare`` (build model state
    for the chosen GNN) and ``_run_epoch`` (one epoch, returning wall
    seconds and loss).  ``supported_models`` gates Table 2's "X" cells.
    """

    name = "base"
    supported_models: tuple[str, ...] = MODEL_NAMES

    def __init__(self, dataset, model_name: str, hidden_dim: int = 32,
                 seed: int = 0, memory_budget: int | None = None,
                 time_limit: float | None = None, **model_params):
        if model_name not in MODEL_NAMES:
            raise ValueError(f"unknown model {model_name!r}; choose from {MODEL_NAMES}")
        self.dataset = dataset
        self.model_name = model_name
        self.hidden_dim = hidden_dim
        self.seed = seed
        self.memory = MemoryMeter(memory_budget)
        self.time_limit = time_limit
        self.model_params = model_params
        self._rng = np.random.default_rng(seed)
        if model_name in self.supported_models:
            self._prepare()

    # -- subclass hooks -----------------------------------------------------
    def _prepare(self) -> None:
        raise NotImplementedError

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        """Return (seconds, loss, extrapolated)."""
        raise NotImplementedError

    # -- public API ----------------------------------------------------------
    def run_epoch(self, epoch: int = 0) -> EpochReport:
        """One training epoch, mapped to a Table 2-style report."""
        base = dict(engine=self.name, model=self.model_name, dataset=self.dataset.name)
        if self.model_name not in self.supported_models:
            return EpochReport(
                **base, seconds=0.0, status="unsupported",
                detail=f"{self.name} cannot express {self.model_name}",
            )
        self.memory.reset()
        try:
            seconds, loss, extrapolated = self._run_epoch(epoch)
        except OutOfMemoryError as exc:
            return EpochReport(
                **base, seconds=0.0, status="oom", detail=str(exc),
                peak_memory_mb=self.memory.peak / 1e6,
            )
        if self.time_limit is not None and seconds > self.time_limit:
            return EpochReport(
                **base, seconds=self.time_limit, status="timeout",
                detail=f"extrapolated epoch {seconds:.1f}s exceeds limit",
                extrapolated=True, peak_memory_mb=self.memory.peak / 1e6,
            )
        return EpochReport(
            **base, seconds=seconds, loss=loss, extrapolated=extrapolated,
            peak_memory_mb=self.memory.peak / 1e6,
        )
