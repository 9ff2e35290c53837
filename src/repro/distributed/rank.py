"""One rank's share of a distributed epoch, written once (§5).

Every FlexGraph worker runs the same NAU layers over its own partition
and exchanges rows with its peers between them.  :class:`Rank` is one
worker's state — its roots, its slice of the model HDG and its rows of
the training targets — and :meth:`Rank.program` is its epoch: a
generator that computes, writes into the epoch's exchange
:class:`Buffers` and yields a :class:`Sync` wherever every rank must
arrive before any rank goes on:

* ``layer_sync`` (layer ``l``) — this rank's layer-``l`` rows are in
  ``h[l + 1]``, which is the next layer's input (the last layer's
  output stays local: it only feeds this rank's loss);
* ``grad_reduce`` (layer ``l``) — this rank's gradient w.r.t. the
  layer-``l`` input is in its slab; the trainer sums the slabs into
  ``g[l]``;
* ``param_reduce`` — likewise for the flattened parameter gradient,
  into ``pbuf``.

Each rank computes the node loss over its own rows, scaled by its share
of the global training count, so the k shares sum to the global mean
loss and the loss gradient never leaves the rank.  Each layer runs on a
*cut tape* whose input is a fresh leaf over the boundary buffer;
parameter gradients move to the rank's slab after every layer, so k
programs may share one model in one process.  Both distributed trainers
drive this program — k of them round-robin in one process, or one per
worker process over shared memory — reduce with the same rank-ordered
:func:`~repro.distributed.comm.reduce_slabs`, and step every optimizer
replica with :func:`apply_reduced_grad` on the one reduced gradient, so
the two backends agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import node_loss
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor

#: sync point names, in the order an epoch reaches them
LAYER_SYNC = "layer_sync"
GRAD_REDUCE = "grad_reduce"
PARAM_REDUCE = "param_reduce"

#: compute phases the program announces through its ``phase`` hook
FORWARD = "forward"
BACKWARD = "backward"

#: boundary and slab dtype (hidden activations inherit the float64
#: parameter dtype)
BUFFER_DTYPE = np.float64


class Sync(NamedTuple):
    """A point every rank reaches before any rank goes on."""

    name: str
    layer: int | None = None
    #: ``layer_sync``: bytes of one input row of the layer; reductions:
    #: bytes of this rank's slab
    nbytes: int = 0
    #: reductions only: every rank's slab, and the output they sum into
    slabs: list | None = None
    out: np.ndarray | None = None


@dataclass
class Buffers:
    """One epoch's exchange buffers, shared by every rank.

    ``h[l]`` / ``g[l]`` (``l = 1..L-1``) are the (n, d) activation at
    layer boundary ``l`` — the output of layer ``l - 1`` — and the loss
    gradient w.r.t. it (the logits never leave their rank);
    ``hslabs[r]`` / ``pslabs[r]`` are rank ``r``'s flat scratch for its
    hidden- and parameter-gradient contributions; ``pbuf`` is the
    reduced parameter gradient.  Items are whatever ``alloc`` returns:
    numpy arrays, or :class:`~repro.distributed.kvstore.SharedArray`
    segments that :meth:`map` turns into views.
    """

    h: dict
    g: dict
    hslabs: list
    pslabs: list
    pbuf: object

    @classmethod
    def allocate(cls, model: NAUModel, n: int, k: int, alloc) -> "Buffers":
        """Buffers for ``model`` over ``n`` vertices and ``k`` ranks;
        ``alloc(shape, dtype)`` makes one (``np.zeros``, ``SharedArray``).

        The boundaries exist before any rank runs, so every layer must
        declare its ``output_dim``.
        """
        dims = []
        for i, layer in enumerate(model.layers):
            try:
                dims.append(layer.output_dim)
            except NotImplementedError:
                raise TypeError(
                    f"layer {i} ({type(layer).__name__}) must define "
                    f"output_dim to train distributed: its boundary buffer "
                    f"is sized before any rank runs") from None
        hidden = dims[:-1]
        slab = max([n * d for d in hidden] or [1])
        psize = max(sum(p.data.size for p in model.parameters()), 1)
        return cls(
            h={l: alloc((n, d), BUFFER_DTYPE) for l, d in enumerate(hidden, 1)},
            g={l: alloc((n, d), BUFFER_DTYPE) for l, d in enumerate(hidden, 1)},
            hslabs=[alloc((slab,), BUFFER_DTYPE) for _ in range(k)],
            pslabs=[alloc((psize,), BUFFER_DTYPE) for _ in range(k)],
            pbuf=alloc((psize,), BUFFER_DTYPE),
        )

    def map(self, fn) -> "Buffers":
        """The same layout with ``fn`` applied to every buffer."""
        return Buffers(
            h={l: fn(b) for l, b in self.h.items()},
            g={l: fn(b) for l, b in self.g.items()},
            hslabs=[fn(b) for b in self.hslabs],
            pslabs=[fn(b) for b in self.pslabs],
            pbuf=fn(self.pbuf),
        )

    def __iter__(self):
        yield from self.h.values()
        yield from self.g.values()
        yield from self.hslabs
        yield from self.pslabs
        yield self.pbuf


def _no_phase(name: str, layer: int | None) -> None:
    pass


class Rank:
    """One shared-nothing rank: its roots, its slice of the model HDG,
    its rows of the training targets, and the loss share and per-layer
    timings of its latest :meth:`program` run.

    ``root_orders`` indexes the global HDG root ordering (vertex ids);
    ``sub_hdg`` restricts the model HDG to those roots, with leaf ids
    left global — remote leaves are what synchronization pays for.
    ``labels`` / ``mask`` are this rank's rows of the targets, and
    ``loss_scale`` its share of the global training count
    (:func:`attach_targets`).
    """

    def __init__(self, rank: int, root_orders: np.ndarray):
        self.rank = rank
        self.root_orders = root_orders
        self.sub_hdg: HDG | None = None
        self.labels: np.ndarray | None = None
        self.mask: np.ndarray | None = None
        self.loss_scale = 1.0
        #: this rank's share of the latest epoch's global mean loss
        self.loss = 0.0
        #: measured seconds per layer (scaled like the spans)
        self.aggregation_seconds: list[float] = []
        self.compute_seconds: list[float] = []
        self.backward_seconds: list[float] = []

    def attach_hdg(self, model_hdg: HDG) -> None:
        """Slice the freshly built model HDG down to this rank's roots."""
        self.sub_hdg = model_hdg.restrict_to_roots(self.root_orders)

    def program(
        self,
        model: NAUModel,
        strategy: ExecutionStrategy,
        X: np.ndarray,
        bufs: Buffers,
        epoch: int,
        *,
        scale: float | None = None,
        phase: Callable[[str, int | None], None] = _no_phase,
    ) -> Iterator[Sync]:
        """This rank's epoch over ``bufs`` (numpy views), input ``X``.

        ``scale`` multiplies the measured ``dist.compute`` /
        ``dist.aggregation`` / ``dist.backward`` durations (a modeled
        worker speed); ``phase(name, layer)`` is called as each forward
        and backward layer starts.
        """
        assert self.sub_hdg is not None, "epoch started before any HDG"
        layers = model.layers
        num_layers = len(layers)
        rows = self.root_orders
        params = model.parameters()
        self.aggregation_seconds = [0.0] * num_layers
        self.compute_seconds = [0.0] * num_layers
        self.backward_seconds = [0.0] * num_layers
        model.train()

        tapes: list[tuple[Tensor, Tensor]] = []
        h_in = Tensor(X)
        for l, layer in enumerate(layers):
            phase(FORWARD, l)
            with obs.span("dist.compute", scale=scale, worker=self.rank,
                          layer=l, epoch=epoch) as s_cmp:
                with obs.span("dist.aggregation", scale=scale) as s_agg:
                    nbr = layer.aggregation(h_in, self.sub_hdg, strategy)
                out = layer.update(h_in[rows], nbr)
            self.aggregation_seconds[l] = s_agg.duration
            self.compute_seconds[l] = s_cmp.duration
            tapes.append((h_in, out))
            row_bytes = h_in.data.shape[1] * h_in.data.itemsize
            if l + 1 < num_layers:
                bufs.h[l + 1][rows] = out.data
                # Stable until the next epoch's forward overwrites it, so
                # a zero-copy leaf view is safe for the whole backward.
                h_in = Tensor(bufs.h[l + 1], requires_grad=True)
            yield Sync(LAYER_SYNC, l, row_bytes)

        model.zero_grad()
        pslab = bufs.pslabs[self.rank]
        pslab[...] = 0.0
        for l in range(num_layers - 1, -1, -1):
            h_leaf, out = tapes[l]
            phase(BACKWARD, l)
            with obs.span("dist.backward", scale=scale, worker=self.rank,
                          layer=l, epoch=epoch) as s_bwd:
                if l + 1 == num_layers:
                    # This rank's share of the global mean loss: its
                    # gradient never leaves the rank.
                    loss = node_loss(out, self.labels, self.mask)
                    self.loss = loss.item() * self.loss_scale
                    loss.backward(self.loss_scale)
                else:
                    out.backward(bufs.g[l + 1][rows])
            self.backward_seconds[l] = s_bwd.duration
            off = 0
            for p in params:
                size = p.data.size
                if p.grad is not None:
                    pslab[off:off + size] += p.grad.ravel()
                    p.grad = None
                off += size
            if l == 0:
                continue  # layer-0 input is the non-differentiable features
            n, d = bufs.g[l].shape
            slab = bufs.hslabs[self.rank][: n * d].reshape(n, d)
            slab[...] = 0.0 if h_leaf.grad is None else h_leaf.grad
            yield Sync(GRAD_REDUCE, l, slab.nbytes,
                       [s[: n * d].reshape(n, d) for s in bufs.hslabs],
                       bufs.g[l])
        yield Sync(PARAM_REDUCE, None, pslab.nbytes, bufs.pslabs, bufs.pbuf)


def attach_targets(ranks: list[Rank], n: int, labels: np.ndarray,
                   mask: np.ndarray | None) -> None:
    """Give every rank its rows of ``labels`` / ``mask`` (one entry per
    vertex each) and its share of the global training count.

    A rank's mean loss times its share is its part of the global mean,
    so the k parts sum to the loss one machine computes; at k = 1 the
    share is exactly 1.0.
    """
    for name, array in (("labels", labels), ("mask", mask)):
        if array is not None and np.shape(array) != (n,):
            raise ValueError(
                f"{name} has shape {np.shape(array)}: distributed training "
                f"needs one entry per vertex, shape ({n},)")
    labels = np.asarray(labels)
    weight = np.ones(n) if mask is None else np.asarray(mask, dtype=np.float64)
    total = max(weight.sum(), 1.0)
    for rank in ranks:
        rows = rank.root_orders
        rank.labels = labels[rows]
        rank.mask = None if mask is None else np.asarray(mask)[rows]
        rank.loss_scale = max(weight[rows].sum(), 1.0) / total


def apply_reduced_grad(model: NAUModel, optimizer: Optimizer,
                       pbuf: np.ndarray) -> None:
    """Step one optimizer replica on the reduced parameter gradient.

    Unflattens ``pbuf`` into every parameter's ``grad``, then steps: each
    replica sees the identical rank-ordered sum, so replicas stay
    bitwise equal.
    """
    optimizer.zero_grad()
    off = 0
    for p in model.parameters():
        size = p.data.size
        p.grad = pbuf[off:off + size].reshape(p.data.shape).copy()
        off += size
    optimizer.step()
