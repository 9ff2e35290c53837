"""The NAU programming abstraction (Section 3.2, Figure 4).

NAU splits each GNN layer into three stages:

* **NeighborSelection** — build HDGs from the input graph via a UDF;
* **Aggregation** — apply per-level aggregation UDFs bottom-up over the
  HDGs to produce neighborhood representations;
* **Update** — combine each vertex's previous feature with its
  neighborhood representation using dense NN ops.

:class:`GNNLayer` is the user-facing interface of Figure 4.  A
:class:`NAUModel` stacks layers and declares the HDG reuse policy: NAU
"does not require the users to define or execute stage NeighborSelection
in every GNN layer" — GCN reuses the input graph, PinSage rebuilds its
HDGs once per epoch, MAGNN's HDGs never change (Section 3.2, Discussion).
"""

from __future__ import annotations

import enum

import numpy as np

from ..graph.graph import Graph
from ..tensor.nn import Linear, Module
from ..tensor.tensor import Tensor, is_grad_enabled
from .aggregation import Aggregator, get_aggregator
from .hdg import HDG, hdg_from_graph
from .hybrid import (
    PROJECT_FIRST,
    ExecutionStrategy,
    carried_projection,
    hierarchical_aggregate,
    reduce_constant,
)

__all__ = ["SelectionScope", "GNNLayer", "LinearUpdateLayer", "NAUModel",
           "projects_first", "layer_dims", "stack_layers"]


class SelectionScope(enum.Enum):
    """How long the HDGs built by NeighborSelection stay valid."""

    STATIC = "static"      # once for the whole training run (GCN, MAGNN)
    PER_EPOCH = "per_epoch"  # rebuilt at each epoch (PinSage's random walks)


def projects_first(edges: int, rows: int, roots: int,
                   d_in: int, d_out: int, scores: int = 0) -> bool:
    """The operator order of a declared linear Update, from counts alone.

    ``edges`` counts the rows reduced over every level of the HDG
    (:func:`reduced_rows`); ``scores`` the attention levels, each of
    which the projection carries as one more column.  Projecting first
    costs ``rows*d_in*(d_out + scores)`` multiply-adds for the
    projection of every input row plus ``edges*(d_out + scores)`` for
    the reduction; reducing first costs ``edges*d_in`` plus
    ``roots*d_in*d_out`` for projecting the roots' aggregates.  The
    cheaper one runs; a tie reduces first.  A pure function of counts
    the call already holds — never a timing, so two passes of one commit
    always choose alike.
    """
    width = d_out + scores
    return rows * d_in * width + edges * width < edges * d_in + roots * d_in * d_out


def reduced_rows(hdg: HDG) -> int:
    """Rows the levels of ``hdg`` reduce, summed bottom-up: its leaf
    entries, and for a depth-3 HDG its instances and — unless the schema
    has one leaf, whose level is the identity — its slots."""
    rows = hdg.leaf_vertices.size
    if hdg.depth == 3:
        rows += hdg.num_instances
        if hdg.schema.num_leaves > 1:
            rows += hdg.num_slots
    return int(rows)


class GNNLayer(Module):
    """One GNN layer expressed in NAU.

    Subclasses set ``self.aggregators`` (bottom-up UDF list consumed by
    the default level-wise :meth:`aggregation`) or override
    :meth:`aggregation` entirely, and define Update (Equation (2)) in
    one of two ways:

    * override :meth:`update` — any function of the previous features
      and the neighborhood representation;
    * declare it linear in the aggregate — :meth:`linear_update` names
      the two bias-free weights, :meth:`combine` is the tail — and this
      class owns :meth:`aggregation`, :meth:`update` and
      :meth:`forward`: ``aggregation`` then returns the *projected*
      neighborhood term, reduced at whichever width costs fewer
      multiply-adds (:func:`projects_first`).  :class:`LinearUpdateLayer`
      is that declaration for an Update that is one ``Linear``.

    A layer selects no neighbors of its own: every layer of a model
    aggregates over the one HDG its :class:`NAUModel` selected.
    """

    def __init__(self, aggregators: list[Aggregator | str] | None = None,
                 dim: int | None = None):
        super().__init__()
        self.aggregators: list[Aggregator] = []
        if aggregators is not None:
            for i, spec in enumerate(aggregators):
                agg = get_aggregator(spec, dim=dim)
                self.aggregators.append(agg)
                # Register parameterized aggregators (attention) as children.
                setattr(self, f"_agg{i}", agg)

    # -- Aggregation --------------------------------------------------------
    def aggregation(self, feats: Tensor, hdg: HDG,
                    strategy: ExecutionStrategy = ExecutionStrategy.HA) -> Tensor:
        """Level-wise bottom-up aggregation (Figure 6's default loop).

        Under a declared linear Update the result is the neighborhood
        term *after* its projection (``out_dim`` wide), whichever order
        computed it.
        """
        if not self.aggregators:
            raise NotImplementedError(
                "set self.aggregators or override aggregation()"
            )
        weights = self.linear_update()
        if weights is None:
            return hierarchical_aggregate(hdg, feats, self.aggregators, strategy)
        return self._projected_aggregation(feats, hdg, strategy, weights[1])[0]

    def _projected_aggregation(self, feats: Tensor, hdg: HDG,
                               strategy: ExecutionStrategy,
                               nbr_weight: Tensor) -> tuple[Tensor, Tensor | None]:
        """``(nbr_proj, projected)``: the projected neighborhood term,
        and ``feats @ nbr_weight`` when the project-first order ran with
        no attention level (``None`` otherwise).

        The projection may move below the reduction only when every
        level's UDF is ``linear`` or ``scored``.  An attention level is
        linear in its values once its weights are known, and its weights
        depend on the values only through ``values @ a``, so the
        projection carries each level's ``a`` as one more column
        (:func:`~repro.core.hybrid.carried_projection`): ``mean(x) @ a
        == mean(x @ a)`` carries a score up through the linear levels,
        and the attention level takes its column off.  The bias
        never moves with the projection (``sum(W h_u + b) != W sum(h_u)
        + b``) — it lives in :meth:`combine`.

        Over an HDG that outlives the epoch, a gradient-free input's
        reduction is a constant of the run (:meth:`_memoizable`): the
        HDG memoizes it and the call projects the memo, so the
        reduction runs once, not forward and backward every epoch.
        """
        strategy = ExecutionStrategy.parse(strategy)
        if self._memoizable(feats, hdg):
            reduced = hdg.memoized_reduction(
                (tuple(type(agg) for agg in self.aggregators), strategy),
                feats.data,
                lambda values: reduce_constant(hdg, values, self.aggregators,
                                               strategy))
            return Tensor(reduced) @ nbr_weight, None
        d_in, d_out = nbr_weight.shape
        scores = sum(agg.scored for agg in self.aggregators)
        if (all(agg.linear or agg.scored for agg in self.aggregators)
                and projects_first(reduced_rows(hdg), feats.shape[0],
                                   hdg.num_roots, d_in, d_out, scores)):
            carried = carried_projection(self.aggregators, nbr_weight)
            projected = feats @ carried
            nbr = hierarchical_aggregate(hdg, projected, self.aggregators,
                                         strategy, PROJECT_FIRST)
            return nbr, projected if carried is nbr_weight else None
        nbr = hierarchical_aggregate(hdg, feats, self.aggregators, strategy)
        return nbr @ nbr_weight, None

    def _memoizable(self, feats: Tensor, hdg: HDG) -> bool:
        """Whether the reduction of ``feats`` over ``hdg`` is a constant
        worth keeping: the HDG is marked persistent, the tape is on,
        no gradient flows into ``feats``, and every level's UDF is
        ``linear`` and parameter-free (a fixed function of its input).
        Only observable properties decide, never which array arrived,
        so every eligible call computes ``reduce(feats) @ W`` and gives
        the same bits, first call or fifth.  Inference (``no_grad``)
        keeps the cheaper projected order and builds no memo.
        """
        return (hdg.persistent and is_grad_enabled()
                and not feats.requires_grad
                and all(agg.linear and not agg.parameters()
                        for agg in self.aggregators))

    @property
    def commutative(self) -> bool:
        """Whether §5's partial aggregation is valid for this layer: the
        bottom-level UDF says so.  A layer that overrides
        :meth:`aggregation` hides its reduction from the engine, so it
        is treated as order-sensitive unless it declares
        ``commutative = True`` itself."""
        if type(self).aggregation is not GNNLayer.aggregation:
            return False
        return bool(self.aggregators) and self.aggregators[0].commutative

    # -- Update --------------------------------------------------------------
    def linear_update(self) -> tuple[Tensor | None, Tensor] | None:
        """Declare Update linear in the aggregate, or ``None`` (default).

        Returns ``(self_weight, nbr_weight)``: the bias-free
        ``(in, out)`` matrices Update applies to a vertex's own feature
        and to its neighborhood representation — the *same object* twice
        when they are shared (``W(h + a)``), two halves of one matrix
        for ``W[h ; a]``, and ``self_weight=None`` when Update has no
        self term (``W a``).  Everything after the two projections —
        bias, scaling, further layers, activation — goes in
        :meth:`combine`.
        """
        return None

    def combine(self, self_proj: Tensor | None, nbr_proj: Tensor) -> Tensor:
        """Tail of a declared linear Update: from ``h @ self_weight``
        (``None`` without a self term) and the projected neighborhood
        term to the layer's output."""
        raise NotImplementedError

    def update(self, feats: Tensor, nbr_feats: Tensor) -> Tensor:
        """Combine previous features with neighborhood representations
        (``nbr_feats`` is what :meth:`aggregation` returned)."""
        weights = self.linear_update()
        if weights is None:
            raise NotImplementedError
        return self.combine(_project(feats, weights[0]), nbr_feats)

    def forward(self, feats: Tensor, hdg: HDG,
                strategy: ExecutionStrategy = ExecutionStrategy.HA,
                rows: np.ndarray | None = None) -> Tensor:
        """Aggregate over ``hdg`` and update its roots.

        ``hdg`` may be a *block* — a sub-HDG whose roots are only some
        of ``feats``' rows (a sampled batch, a worker's partition
        slice); ``rows`` then names the roots' feature rows and the
        result has one row per root.  ``rows=None`` is the full-graph
        case: the roots are every row, in order — and a declared linear
        Update with a shared weight that projected ``feats`` for the
        reduction reuses that projection as the self term.  The values
        are bitwise those of :meth:`aggregation` then :meth:`update`.
        """
        weights = self.linear_update()
        if weights is None:
            nbr_feats = self.aggregation(feats, hdg, strategy)
            return self.update(feats if rows is None else feats[rows],
                               nbr_feats)
        self_weight, nbr_weight = weights
        nbr_proj, projected = self._projected_aggregation(
            feats, hdg, strategy, nbr_weight)
        if projected is not None and rows is None and self_weight is nbr_weight:
            return self.combine(projected, nbr_proj)
        self_feats = feats if rows is None else feats[rows]
        return self.combine(_project(self_feats, self_weight), nbr_proj)

    @property
    def output_dim(self) -> int:
        """Feature dimension this layer produces (used for stacking checks)."""
        raise NotImplementedError


class LinearUpdateLayer(GNNLayer):
    """A GNN layer whose Update is one ``Linear``, then ReLU.

    The ``Linear`` reads the vertex's feature ``h`` and its
    neighborhood representation ``a``; the ReLU is off when
    ``activation`` is (the model's last layer).  The class attribute
    ``form`` says how the ``Linear`` reads them:

    * ``"sum"`` — ``W(h + a) + b`` (GCN): one shared weight;
    * ``"concat"`` — ``W[h ; a] + b`` (GAT, P-GNN, PinSage): the top
      half of ``W`` projects ``h``, the bottom half ``a``;
    * ``"nbr"`` — ``W a + b`` (MAGNN): no self term.

    A subclass names its aggregation UDFs and its ``form``; the
    ``Linear`` is ``self.linear``, so its parameters are
    ``linear.weight`` and ``linear.bias``.
    """

    form = "sum"

    def __init__(self, aggregators: list[Aggregator | str], in_dim: int,
                 out_dim: int, activation: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__(aggregators, dim=in_dim)
        width = 2 * in_dim if self.form == "concat" else in_dim
        self.linear = Linear(width, out_dim, rng=rng)
        self.activation = activation

    def linear_update(self) -> tuple[Tensor | None, Tensor]:
        weight = self.linear.weight
        if self.form == "sum":
            return weight, weight
        if self.form == "nbr":
            return None, weight
        in_dim = self.linear.in_features // 2
        return weight[:in_dim], weight[in_dim:]

    def combine(self, self_proj: Tensor | None, nbr_proj: Tensor) -> Tensor:
        out = nbr_proj if self_proj is None else self_proj + nbr_proj
        out = out + self.linear.bias
        return out.relu() if self.activation else out

    @property
    def output_dim(self) -> int:
        return self.linear.out_features


def _project(feats: Tensor, weight: Tensor | None) -> Tensor | None:
    """``feats @ weight``, or ``None`` for an Update with no self term."""
    return None if weight is None else feats @ weight


class NAUModel(Module):
    """A stack of :class:`GNNLayer` over one NeighborSelection.

    Parameters
    ----------
    layers:
        The GNN layers, applied in order.
    selection_scope:
        HDG reuse policy (see :class:`SelectionScope`).
    name:
        Display name for logs and benchmark tables.
    """

    #: Which GNN category the model belongs to (Section 2.2). Subclasses set it.
    category = "DNFA"

    def __init__(self, layers: list[GNNLayer],
                 selection_scope: SelectionScope = SelectionScope.STATIC,
                 name: str = "nau-model"):
        super().__init__()
        if not layers:
            raise ValueError("model needs at least one layer")
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
        self.selection_scope = SelectionScope(selection_scope)
        self.name = name

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # -- NeighborSelection ---------------------------------------------------
    def neighbor_selection(self, graph: Graph, rng: np.random.Generator) -> HDG:
        """Build the model-level HDG every layer aggregates over.

        Its roots must be every vertex of ``graph`` in id order: blocks,
        rank slices and partitions read a root's position as its vertex
        id (:class:`~repro.core.step.ModelHDGs` refuses any other
        layout).  The default is the DNFA fast path: reuse the input
        graph as a flat HDG of direct neighbors.  INFA/INHA models
        override this with their own UDF-driven construction.
        """
        return hdg_from_graph(graph)

    def reselect(self, hdg: HDG, graph: Graph,
                 changed: np.ndarray) -> tuple[HDG, np.ndarray] | None:
        """Repair ``hdg`` after an edge edit: ``(new_hdg, touched)``.

        ``graph`` is the edited graph and ``changed`` the ``(m, 2)``
        edges added or removed.  ``new_hdg`` equals
        ``neighbor_selection(graph)`` and ``touched`` lists the roots
        whose neighbourhoods changed.  ``None`` means the model cannot
        repair its selection (it is stochastic, or an override this
        method does not know): the caller selects again from scratch and
        treats every root as touched.  The default covers the DNFA fast
        path, where the HDG *is* the graph's CSC and only the changed
        edges' destinations moved.
        """
        if (type(self).neighbor_selection is not NAUModel.neighbor_selection
                or self.selection_scope is not SelectionScope.STATIC):
            return None
        changed = np.asarray(changed, dtype=np.int64).reshape(-1, 2)
        return hdg_from_graph(graph), np.unique(changed[:, 1])

    def forward(self, feats: Tensor, hdg: HDG,
                strategy: ExecutionStrategy = ExecutionStrategy.HA) -> Tensor:
        """Run all layers over the model-level ``hdg``."""
        h = feats
        for layer in self.layers:
            h = layer.forward(h, hdg, strategy)
        return h


def layer_dims(in_dim: int, hidden_dim: int, out_dim: int,
               num_layers: int) -> list[int]:
    """The layer widths of a ``num_layers``-deep model.

    ``in_dim``, then ``hidden_dim`` between layers, then ``out_dim``.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    return [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]


def stack_layers(layer_cls: type[GNNLayer], dims: list[int], seed: int,
                 **kwargs) -> list[GNNLayer]:
    """The layers of a model whose widths are ``dims``.

    One ``layer_cls(dims[i], dims[i + 1], ...)`` per consecutive pair,
    all drawing their parameters from one rng seeded with ``seed``, in
    layer order; every layer but the last applies its activation.
    ``kwargs`` go to every layer.
    """
    if len(dims) < 2:
        raise ValueError("dims must list input, hidden..., output sizes")
    rng = np.random.default_rng(seed)
    last = len(dims) - 2
    return [layer_cls(dims[i], dims[i + 1], activation=i < last, rng=rng,
                      **kwargs)
            for i in range(len(dims) - 1)]
