"""One rank's share of a distributed epoch, written once (§5).

Every FlexGraph worker runs the same NAU layers over its own partition
and exchanges rows with its peers between them.  A rank is a *block*:
:func:`attach_hdg` slices the model HDG down to the rank's roots and
relabels the slice with :func:`~repro.core.step.compact_blocks` — the
relabel sampled batches and served requests run through — into the
rank's universe ``inputs``, its owned rows ∪ its *halo* (the remote
leaves its slice names, the induced-graph edges of Fig. 11b).  Every
layer then runs on ``|owned ∪ halo|`` rows, never on n.

:class:`Rank` is one worker's state — that block, its rows of the
training targets and the receive lists of its halo gradients — and
:meth:`Rank.program` is its epoch: a generator that computes, writes
into the epoch's exchange :class:`Buffers` and yields a :class:`Sync`
wherever every rank must arrive before any rank goes on:

* ``layer_sync`` (layer ``l``) — this rank's layer-``l`` rows are in the
  shared ``h[l + 1]``; on resuming it gathers its universe's rows of it
  as the next layer's input (the last layer's output stays local: it
  only feeds this rank's loss);
* ``grad_reduce`` (layer ``l``) — this rank's gradient w.r.t. its
  layer-``l`` input rows is in its slab, in local order; the sync's
  reduction is the owner-side sum: in rank order, add the rows every
  slab holds for this rank's owned vertices;
* ``param_reduce`` — the sync's reduction is this rank's chunk of
  :func:`~repro.distributed.comm.reduce_slabs` over the flattened
  parameter gradients, into ``pbuf``.

A sync carries its own reduction (``reduce``, ``None`` at a
``layer_sync``) and the bytes and messages this rank copies from its
peers there, counted at the copy; the trainers only decide when to call
it.  Each rank computes the node loss over its own rows, scaled by its
share of the global training count, so the k shares sum to the global
mean loss and the loss gradient never leaves the rank.  Each layer runs
on a *cut tape* whose input is a fresh leaf over the gathered rows;
parameter gradients move to the rank's slab after every layer, so k
programs may share one model in one process.  Both distributed trainers
drive this program — k of them round-robin in one process, or one per
worker process over shared memory — run the same rank-ordered
reductions, and step every optimizer replica with
:func:`apply_reduced_grad` on the one reduced gradient, so the two
backends agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.step import compact_blocks, node_loss
from ..tensor.nn import param_dtype
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .comm import allreduce_traffic, reduce_slabs

#: sync point names, in the order an epoch reaches them
LAYER_SYNC = "layer_sync"
GRAD_REDUCE = "grad_reduce"
PARAM_REDUCE = "param_reduce"

#: compute phases the program announces through its ``phase`` hook
FORWARD = "forward"
BACKWARD = "backward"


class Sync(NamedTuple):
    """A point every rank reaches before any rank goes on."""

    name: str
    layer: int | None = None
    #: ``layer_sync``: bytes of one input row of the layer (what a
    #: modeled plan prices)
    row_bytes: int = 0
    #: bytes and messages this rank copies from its peers at this sync
    nbytes: float = 0.0
    messages: int = 0
    #: reductions only: this rank's share, run once every rank is here
    reduce: Callable[[], None] | None = None


@dataclass
class Buffers:
    """One epoch's exchange buffers, shared by every rank.

    ``h[l]`` (``l = 1..L-1``) is the (n, d) activation at layer boundary
    ``l`` — the output of layer ``l - 1``, each rank writing its owned
    rows (the logits never leave their rank); ``hslabs[r]`` /
    ``pslabs[r]`` are rank ``r``'s flat scratch for its hidden-gradient
    rows (local order) and its parameter-gradient contribution; ``pbuf``
    is the reduced parameter gradient.  Every buffer has the model's
    parameter dtype, which the activations and gradients it holds
    follow.  Items are whatever ``alloc`` returns: numpy arrays, or
    :class:`~repro.distributed.kvstore.SharedArray` segments that
    :meth:`map` turns into views.
    """

    h: dict
    hslabs: list
    pslabs: list
    pbuf: object

    @classmethod
    def allocate(cls, model: NAUModel, n: int, k: int, alloc) -> "Buffers":
        """Buffers for ``model`` over ``n`` vertices and ``k`` ranks;
        ``alloc(shape, dtype)`` makes one (``np.zeros``, ``SharedArray``).

        The boundaries exist before any rank runs, so every layer must
        declare its ``output_dim``.  A slab holds any universe's rows, at
        most n, of the widest boundary.
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
        dtype = param_dtype(model)
        return cls(
            h={l: alloc((n, d), dtype) for l, d in enumerate(hidden, 1)},
            hslabs=[alloc((slab,), dtype) for _ in range(k)],
            pslabs=[alloc((psize,), dtype) for _ in range(k)],
            pbuf=alloc((psize,), dtype),
        )

    def map(self, fn) -> "Buffers":
        """The same layout with ``fn`` applied to every buffer."""
        return Buffers(
            h={l: fn(b) for l, b in self.h.items()},
            hslabs=[fn(b) for b in self.hslabs],
            pslabs=[fn(b) for b in self.pslabs],
            pbuf=fn(self.pbuf),
        )

    def __iter__(self):
        yield from self.h.values()
        yield from self.hslabs
        yield from self.pslabs
        yield self.pbuf


def _no_phase(name: str, layer: int | None) -> None:
    pass


def _slab_rows(slab: np.ndarray, d: int) -> np.ndarray:
    """A flat slab viewed as rows of width ``d``."""
    return slab[: slab.size // d * d].reshape(-1, d)


def peer_traffic(rows_per_peer: np.ndarray, row_bytes: int) -> tuple[float, int]:
    """(bytes, messages) of copying ``rows_per_peer[r]`` rows of
    ``row_bytes`` each from every peer ``r``: one message per peer that
    has any."""
    return (float(rows_per_peer.sum()) * row_bytes,
            int(np.count_nonzero(rows_per_peer)))


class Rank:
    """One shared-nothing rank: its roots, its block, its rows of the
    training targets, and the loss share and per-layer timings of its
    latest :meth:`program` run.

    ``root_orders`` indexes the global HDG root ordering (vertex ids):
    the rank's owned rows.  :func:`attach_hdg` sets the block —
    ``inputs`` (the universe: sorted global ids, owned ∪ halo), ``block``
    (the rank's slice of the model HDG in positions of ``inputs``),
    ``out_rows`` (the owned rows' positions, ``inputs[out_rows] ==
    root_orders``) — and the exchange lists: ``halo_counts[r]``, the
    rows of rank ``r`` in this rank's halo, and ``recv[r]``, the
    (positions in rank ``r``'s universe, positions among this rank's
    owned rows — ``slice(None)`` when they are all of them) of the rows
    both hold (``recv[rank]`` is ``(out_rows, slice(None))``);
    ``recv_counts`` is their sizes, without its own.
    ``labels`` / ``mask`` are this rank's rows of the targets, and
    ``loss_scale`` its share of the global training count
    (:func:`attach_targets`).
    """

    def __init__(self, rank: int, root_orders: np.ndarray):
        self.rank = rank
        self.root_orders = root_orders
        self.block: HDG | None = None
        self.inputs: np.ndarray | None = None
        self.out_rows: np.ndarray | None = None
        self.halo_counts: np.ndarray | None = None
        self.recv: list[tuple[np.ndarray, np.ndarray | slice]] = []
        self.recv_counts: np.ndarray | None = None
        self.labels: np.ndarray | None = None
        self.mask: np.ndarray | None = None
        self.loss_scale = 1.0
        #: this rank's share of the latest epoch's global mean loss
        self.loss = 0.0
        #: measured seconds per layer (scaled like the spans)
        self.aggregation_seconds: list[float] = []
        self.compute_seconds: list[float] = []
        self.backward_seconds: list[float] = []

    def _sum_owned_grads(self, slabs: list[np.ndarray], out: np.ndarray) -> None:
        """The owner-side sum: ``out`` (one row per owned vertex)
        becomes, in rank order, the sum of the rows every rank's slab
        holds for those vertices — this rank's own slab included."""
        d = out.shape[1]
        out[...] = 0.0
        for slab, (pos, own) in zip(slabs, self.recv):
            out[own] += _slab_rows(slab, d)[pos]

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
        """This rank's epoch over ``bufs`` (numpy views); ``X`` holds its
        universe's feature rows, one per ``inputs`` entry.

        ``scale`` multiplies the measured ``dist.compute`` /
        ``dist.aggregation`` / ``dist.backward`` durations (a modeled
        worker speed); ``phase(name, layer)`` is called as each forward
        and backward layer starts.
        """
        assert self.block is not None, "epoch started before any HDG"
        layers = model.layers
        num_layers = len(layers)
        rows = self.out_rows
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
                    nbr = layer.aggregation(h_in, self.block, strategy)
                out = layer.update(h_in[rows], nbr)
            self.aggregation_seconds[l] = s_agg.duration
            self.compute_seconds[l] = s_cmp.duration
            tapes.append((h_in, out))
            row_bytes = h_in.data.shape[1] * h_in.data.itemsize
            if l + 1 == num_layers:
                yield Sync(LAYER_SYNC, l, row_bytes)
                break
            boundary = bufs.h[l + 1]
            boundary[self.root_orders] = out.data
            yield Sync(LAYER_SYNC, l, row_bytes,
                       *peer_traffic(self.halo_counts,
                                 boundary.shape[1] * boundary.itemsize))
            h_in = Tensor(boundary[self.inputs], requires_grad=True)

        model.zero_grad()
        pslab = bufs.pslabs[self.rank]
        pslab[...] = 0.0
        grad = None  # the loss gradient w.r.t. this layer's owned rows
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
                    out.backward(grad)
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
            d = h_leaf.data.shape[1]
            slab = _slab_rows(bufs.hslabs[self.rank], d)[: self.inputs.size]
            slab[...] = 0.0 if h_leaf.grad is None else h_leaf.grad
            grad = np.empty((rows.size, d), dtype=slab.dtype)
            yield Sync(GRAD_REDUCE, l, 0,
                       *peer_traffic(self.recv_counts, d * slab.itemsize),
                       reduce=partial(self._sum_owned_grads, bufs.hslabs, grad))
        yield Sync(PARAM_REDUCE, None, 0,
                   *allreduce_traffic(pslab.nbytes, len(bufs.pslabs)),
                   reduce=partial(reduce_slabs, bufs.pslabs, bufs.pbuf,
                                  self.rank))


def attach_hdg(ranks: list[Rank], model_hdg: HDG, labels: np.ndarray) -> None:
    """Cut every rank's block out of the freshly built model HDG.

    Each rank's slice is relabeled by
    :func:`~repro.core.step.compact_blocks` into its universe, owned ∪
    halo; ``labels`` (vertex → rank) then give each rank its halo rows
    per owner, and each owner the rows every rank's universe holds of
    it — the receive lists of its owner-side gradient sum.  A block cut
    from a persistent HDG (a ``STATIC`` model's) lives as long as it,
    and is marked persistent too.
    """
    k = len(ranks)
    for rank in ranks:
        owned = rank.root_orders
        compact = compact_blocks(
            [(model_hdg.restrict_to_roots(owned), owned)], owned)
        (rank.block, rank.out_rows), = compact.blocks
        rank.block.persistent = model_hdg.persistent
        rank.inputs = compact.input_vertices
        rank.halo_counts = np.bincount(labels[rank.inputs], minlength=k)
        rank.halo_counts[rank.rank] = 0
    for owner in ranks:
        owner.recv = []
        for peer in ranks:
            pos = np.flatnonzero(labels[peer.inputs] == owner.rank)
            own = np.searchsorted(owner.root_orders, peer.inputs[pos])
            # A rank holding every owned row adds them in place, with no
            # gather and scatter of the sum (its own entry always does).
            full = own.size == owner.root_orders.size
            owner.recv.append((pos, slice(None) if full else own))
        owner.recv_counts = np.array([pos.size for pos, _ in owner.recv])
        owner.recv_counts[owner.rank] = 0


def feature_matrix(feats: Tensor | np.ndarray, n: int) -> np.ndarray:
    """The array behind ``feats``, checked to hold one row per vertex.

    A rank gathers its universe's rows by vertex id, so a matrix with
    extra rows would silently train and one with missing rows would fail
    deep inside a layer: both are a named error, before any rank runs.
    """
    X = feats.data if isinstance(feats, Tensor) else np.asarray(feats)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(
            f"features have shape {X.shape}: distributed training needs "
            f"one row per vertex, shape ({n}, d)")
    return X


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
    # Shares are Python floats of the mask's own sums (a count for a
    # boolean mask): the loss gradient they seed takes the logits' dtype.
    weight = np.ones(n, dtype=bool) if mask is None else np.asarray(mask)
    total = max(float(weight.sum()), 1.0)
    for rank in ranks:
        rows = rank.root_orders
        rank.labels = labels[rows]
        rank.mask = None if mask is None else np.asarray(mask)[rows]
        rank.loss_scale = max(float(weight[rows].sum()), 1.0) / total


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
