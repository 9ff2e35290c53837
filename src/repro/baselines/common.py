"""Shared baseline-engine infrastructure.

The paper compares FlexGraph against PyTorch, DGL, DistDGL and Euler.
None of those are available offline, so ``repro.baselines`` re-implements
the *algorithms* the paper attributes to each system (per-edge sparse
tensor ops, GAS/SAGA-NN with kernel fusion, mini-batch k-hop sampling,
pre-expanded graphs).  Every engine trains the one ``repro.models``
model FlexGraph trains — its weights, its Update, its loss head — on the
same numpy/autograd substrate, and differs only in how NeighborSelection
and Aggregation run, so runtime differences reflect execution strategy:
exactly what the paper's comparisons measure.

Resource envelopes are scaled down alongside the datasets:

* :class:`MemoryMeter` imposes a per-step transient-allocation budget
  standing in for the testbed's 512 GB RAM; exceeding it raises
  :class:`OutOfMemoryError` (the paper's "OOM" cells).  A baseline
  projects each large intermediate through :meth:`MemoryMeter.hold`,
  in the dtype of the array it builds; FlexGraph's column is the tensor
  layer's counted per-edge bytes.
* Engines may report ``status="timeout"`` when an extrapolated epoch
  exceeds the time limit (the paper's ">3600s" cells).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..core.hdg import hdg_from_flat_arrays
from ..core.nau import GNNLayer
from ..core.schema import SchemaTree
from ..core.step import node_loss, train_step
from ..models.gcn import gcn
from ..models.magnn import default_metapaths, magnn
from ..models.pinsage import pinsage
from ..tensor.nn import as_param_dtype
from ..tensor.optim import Adam
from ..tensor.scatter import scatter_add
from ..tensor.tensor import Tensor

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

    ``hold(shape, dtype)`` spans the life of one large intermediate: it
    charges the array's bytes *before* the array is built — raising
    :class:`OutOfMemoryError` when they do not fit — and releases them
    on exit.  ``peak`` records the high-water mark since ``reset``.
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

    @contextmanager
    def hold(self, shape, dtype, what: str = ""):
        """Charge an array of ``shape`` and ``dtype`` for the ``with`` body."""
        nbytes = math.prod(int(s) for s in shape) * np.dtype(dtype).itemsize
        self.charge(nbytes, what)
        try:
            yield
        finally:
            self.current -= nbytes

    def reset(self) -> None:
        self.current = 0
        self.peak = 0


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


def update(layer: GNNLayer, h: Tensor, agg: Tensor) -> Tensor:
    """``layer``'s own Update over an aggregate reduced before any
    projection: the neighborhood term is ``agg @ nbr_weight``."""
    return layer.update(h, agg @ layer.linear_update()[1])


class BaselineEngine:
    """Base class for competitor engines.

    Subclasses set ``name`` and implement ``_run_epoch`` (one epoch,
    returning wall seconds and loss); ``_prepare`` builds the
    ``repro.models`` model (``model_params`` may set PinSage's
    ``num_traces`` / ``n_hops`` / ``top_k`` and MAGNN's ``metapaths`` /
    ``max_instances_per_root``), its optimizer and the features in its
    dtype, and engines extend it with their own state.  An engine reads
    its NeighborSelection parameters off the model and runs each layer's
    own Update (:func:`update`).  ``supported_models`` gates Table 2's
    "X" cells.
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
        ds, params = self.dataset, self.model_params
        dims = (ds.feat_dim, self.hidden_dim, ds.num_classes)
        if self.model_name == "gcn":
            self.model = gcn(*dims, seed=self.seed)
        elif self.model_name == "pinsage":
            walks = {key: params[key] for key in ("num_traces", "n_hops", "top_k")
                     if key in params}
            self.model = pinsage(*dims, seed=self.seed, **walks)
        else:
            self.model = magnn(
                *dims, seed=self.seed,
                metapaths=params.get("metapaths") or default_metapaths(ds.graph.num_types),
                max_instances_per_root=params.get("max_instances_per_root"),
            )
        self.optimizer = Adam(self.model.parameters(), lr=0.01)
        self.feats = Tensor(as_param_dtype(self.model, ds.features))

    def _run_epoch(self, epoch: int) -> tuple[float, float | None, bool]:
        """Return (seconds, loss, extrapolated)."""
        raise NotImplementedError

    # -- shared epoch bodies -------------------------------------------------
    def _weighted_flat_epoch(self, owners: np.ndarray, nbrs: np.ndarray,
                             weights: np.ndarray) -> float:
        """One PinSage epoch over the flat weighted neighbourhoods
        ``(owners, nbrs, weights)`` an engine's NeighborSelection yields.

        Per layer: gather ``h[src]`` onto the edges, scale by the leaf
        weights, ``scatter_add`` per root and Update — one edge view held
        per layer, with no feature fusion; then one train step.
        """
        ds = self.dataset
        n = ds.graph.num_vertices
        hdg = hdg_from_flat_arrays(
            SchemaTree(), np.arange(n, dtype=np.int64), owners, nbrs, weights, n
        )
        dst, src = hdg.sub_graph(1)
        edge_weights = Tensor(hdg.leaf_weights.reshape(-1, 1))
        h = self.feats
        for layer in self.model.layers:
            with self.memory.hold((src.size, h.shape[1]), h.dtype, "edge messages"):
                agg = scatter_add(h[src] * edge_weights, dst, n)
            h = update(layer, h, agg)
        return self._train_step(h, ds.labels, ds.train_mask)

    def _train_step(self, logits: Tensor, labels: np.ndarray,
                    mask: np.ndarray | None) -> float:
        """The step core's node loss and optimise step; the loss value."""
        loss = node_loss(logits, labels, mask)
        train_step(loss, self.optimizer)
        return loss.item()

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
