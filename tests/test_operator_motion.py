"""Operator motion in the NAU step (docs/nau_programming_guide.md §Update).

A layer that declares its Update linear in the aggregate lets
``GNNLayer`` reduce at the narrower width.  Four things are pinned here:

* a numpy-only dense reference (adjacency matmul; no HDG, plans or
  scatter kernels, float64 throughout) for loss and every parameter
  gradient — the first cell of the differential oracle (ROADMAP item
  4) — matched within 1e-10 by both operator orders of a float64 model
  (built, then cast with ``Module.astype``), for GAT
  (adjacency-masked softmax) by the fused and the scatter attention
  under every strategy, and for MAGNN's mean → attention → mean chain
  on a typed graph; the float32 default matches it within
  :data:`TOL32`;
* the order is the argmin of two multiply-add counts, nothing else;
* the counted work moves by exactly the predicted amount where the
  order moves, and not at all where it does not;
* ``aggregation`` + ``update`` is bitwise ``forward``, also with two
  threads in one model.
"""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import (
    FlexGraphEngine,
    SchemaTree,
    hdg_from_flat_arrays,
    hdg_from_instance_arrays,
)
from repro.core.aggregation import (
    AttentionAggregator,
    SumAggregator,
    get_aggregator,
)
from repro.core.hdg import hdg_from_graph
from repro.core.hybrid import BACKEND_EVENT, PROJECT_FIRST, REDUCE_FIRST
from repro.core.nau import projects_first, reduced_rows
from repro.core.step import run_local_blocks, sample_blocks
from repro.datasets import load_dataset
from repro.models import gat, gcn, gin, magnn, pgnn, pinsage
from repro.models.gat import GATLayer
from repro.models.gcn import GCNLayer
from repro.models.gin import GINLayer
from repro.models.magnn import MAGNNLayer, default_metapaths
from repro.models.pinsage import PinSageLayer
from repro.tensor import Adam, Tensor, concat, cross_entropy

from .instances import instance_arrays

N, D_IN, D_HID, D_OUT = 14, 6, 4, 3
TOL = 1e-10
EPS32 = float(np.finfo(np.float32).eps)
#: float32 model against the float64 reference, relative to the largest
#: entry of each compared array: every value is a chain of at most
#: ~2^6 roundings (two layers of <= 6-term neighbor sums, width-6 dot
#: products, softmax and their transposes in the backward), each
#: <= eps32/2 relative to the magnitudes it combines.
TOL32 = 64 * EPS32


# ----------------------------------------------------------------------
# the graph: explicit edge arrays, so the reference never sees an HDG
# ----------------------------------------------------------------------
def _edges():
    """(owners, nbrs, weights): vertex 0 has no in-edges, (1 <- 2) is a
    multi-edge, every other vertex draws 3-5 in-neighbors."""
    rng = np.random.default_rng(3)
    owners, nbrs = [1, 1], [2, 2]
    for v in range(1, N):
        picks = rng.choice(N, size=rng.integers(3, 6), replace=False)
        owners += [v] * picks.size
        nbrs += picks.tolist()
    owners, nbrs = np.array(owners), np.array(nbrs)
    return owners, nbrs, rng.uniform(0.1, 1.0, owners.size)


def _flat_hdg(weighted: bool):
    owners, nbrs, weights = _edges()
    return hdg_from_flat_arrays(SchemaTree(), np.arange(N), owners, nbrs,
                                weights if weighted else None, N)


def _adjacency(hdg, mean: bool = False) -> np.ndarray:
    """Dense ``(roots, inputs)`` matrix of a flat HDG's edge arrays."""
    counts = np.diff(hdg.leaf_offsets)
    owner = np.repeat(np.arange(hdg.num_roots), counts)
    a = np.zeros((hdg.num_roots, hdg.num_input_vertices))
    weights = 1.0 if hdg.leaf_weights is None else hdg.leaf_weights
    np.add.at(a, (owner, hdg.leaf_vertices), weights)
    return a / np.maximum(counts, 1)[:, None] if mean else a


# ----------------------------------------------------------------------
# the reference: plain numpy forward and hand-derived backward
# ----------------------------------------------------------------------
def _cross_entropy(logits, labels):
    """Mean cross-entropy and its gradient with respect to ``logits``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = np.arange(len(labels)), labels
    d_logits = np.exp(log_probs)
    d_logits[picked] -= 1.0
    return -log_probs[picked].mean(), d_logits / len(labels)


def _reference(kind, params, x, blocks, out_rows, labels):
    """Loss and parameter gradients of a two-layer model.

    ``blocks`` is ``[(A, rows)]`` per layer: ``A @ h`` is the
    neighborhood term of the rows ``rows`` of ``h``; the layer's output
    is scattered back to ``h``'s row space (a no-op on the full graph).
    ``params`` is one dict of arrays per layer; the last layer has no
    final activation.  Returns ``(loss, [grad dict per layer])``.
    """
    h, tape = x, []
    for i, (p, (a, rows)) in enumerate(zip(params, blocks)):
        last = i == len(params) - 1
        own, nbr = h[rows], a @ h
        if kind == "concat":                 # W [h ; a] + b
            s = np.concatenate([own, nbr], axis=1)
        elif kind == "gin":                  # fc1((1 + eps) h + a)
            s = (1.0 + p["eps"]) * own + nbr
        else:                                # W (h + a) + b
            s = own + nbr
        z = s @ p["w"] + p["b"]
        hidden = None
        if kind == "gin":
            hidden = np.maximum(z, 0.0)
            z = hidden @ p["w2"] + p["b2"]
        out = z if last else np.maximum(z, 0.0)
        tape.append((own, s, hidden, z))
        h = np.zeros((h.shape[0], out.shape[1]))
        h[rows] = out

    loss, d_logits = _cross_entropy(h[out_rows], labels)
    d_h = np.zeros_like(h)
    np.add.at(d_h, out_rows, d_logits)

    grads = [None] * len(params)
    for i in reversed(range(len(params))):
        p, (a, rows) = params[i], blocks[i]
        own, s, hidden, z = tape[i]
        d_z = d_h[rows] if i == len(params) - 1 else d_h[rows] * (z > 0)
        g = {}
        if kind == "gin":
            g["w2"], g["b2"] = hidden.T @ d_z, d_z.sum(axis=0)
            d_z = (d_z @ p["w2"].T) * (hidden > 0)
        g["w"], g["b"] = s.T @ d_z, d_z.sum(axis=0)
        d_s = d_z @ p["w"].T
        if kind == "concat":
            d_own, d_nbr = d_s[:, :own.shape[1]], d_s[:, own.shape[1]:]
        elif kind == "gin":
            g["eps"] = np.array([(d_s * own).sum()])
            d_own, d_nbr = (1.0 + p["eps"]) * d_s, d_s
        else:
            d_own = d_nbr = d_s
        d_h = a.T @ d_nbr
        np.add.at(d_h, rows, d_own)
        grads[i] = g
    return loss, grads


def _gat_reference(params, x, c, labels):
    """Loss and parameter gradients of a full-graph GAT.

    Per layer: scores ``s = h a``; ``P`` is the softmax of ``s`` over
    each root's in-neighbours, masked and weighted by the edge-count
    matrix ``c`` (a multi-edge counts twice, a root with no in-edges
    gets a zero row); ``z = [h ; P h] W + b``, ReLU but for the last.
    """
    h, tape = x, []
    for i, p in enumerate(params):
        s = h @ p["a"]
        e = c * np.exp(s - s.max())[None, :]
        denom = e.sum(axis=1, keepdims=True)
        prob = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)
        cat = np.concatenate([h, prob @ h], axis=1)
        z = cat @ p["w"] + p["b"]
        tape.append((h, prob, cat, z))
        h = z if i == len(params) - 1 else np.maximum(z, 0.0)

    loss, d_h = _cross_entropy(h, labels)
    grads = [None] * len(params)
    for i in reversed(range(len(params))):
        p, (h_in, prob, cat, z) = params[i], tape[i]
        d_z = d_h if i == len(params) - 1 else d_h * (z > 0)
        g = {"w": cat.T @ d_z, "b": d_z.sum(axis=0)}
        d_cat = d_z @ p["w"].T
        d_own, d_nbr = d_cat[:, :h_in.shape[1]], d_cat[:, h_in.shape[1]:]
        d_prob = d_nbr @ h_in.T
        # softmax backward per root; a column's score is shared by
        # every root that has that in-neighbour
        d_s = (prob * (d_prob - (prob * d_prob).sum(axis=1, keepdims=True))
               ).sum(axis=0)
        g["a"] = h_in.T @ d_s
        d_h = d_own + prob.T @ d_nbr + np.outer(d_s, p["a"])
        grads[i] = g
    return loss, grads


def _typed_hdg():
    """A depth-3 HDG over two instance types: 0-3 instances of 2-3
    member vertices per (root, type) slot; root 0 has no instances and
    root 1 none of the second type (empty slots)."""
    rng = np.random.default_rng(4)
    instances = []
    for v in range(1, N):
        for t in range(1 if v == 1 else 2):
            for _ in range(rng.integers(1 if v == 1 else 0, 4)):
                members = rng.choice(N, size=rng.integers(2, 4))
                instances.append((v, members, t))
    return hdg_from_instance_arrays(SchemaTree(("a", "b")), np.arange(N),
                                    *instance_arrays(instances), N)


def _level_counts(hdg):
    """Dense ``(dst, src)`` count matrices of a depth-3 HDG's levels,
    bottom-up: members -> instances, instances -> slots, slots -> roots
    (a repeated member counts twice)."""
    inst = np.zeros((hdg.num_instances, hdg.num_input_vertices))
    owner = np.repeat(np.arange(hdg.num_instances), np.diff(hdg.leaf_offsets))
    np.add.at(inst, (owner, hdg.leaf_vertices), 1.0)
    slot = np.zeros((hdg.num_slots, hdg.num_instances))
    owner = np.repeat(np.arange(hdg.num_slots), np.diff(hdg.instance_offsets))
    slot[owner, np.arange(hdg.num_instances)] = 1.0
    root = np.zeros((hdg.num_roots, hdg.num_slots))
    slots = np.arange(hdg.num_slots)
    root[slots // hdg.schema.num_leaves, slots] = 1.0
    return [inst, slot, root]


def _chain_reference(kinds, p, x, counts, labels):
    """Output, loss and parameter gradients of one layer ``agg W + b``
    (no self term, no activation) whose aggregate runs ``x`` through a
    chain of levels, bottom-up: ``mean`` averages each destination's
    sources, ``attention`` weighs them by the softmax of ``s = h a``
    (``p["a"]`` lists one ``a`` per attention level, bottom-up), masked
    by the level's count matrix (an empty destination gets a zero
    row)."""
    h, tape, scores = x, [], iter(p["a"])
    for kind, c in zip(kinds, counts):
        a = None
        if kind == "mean":
            m = c / np.maximum(c.sum(axis=1, keepdims=True), 1.0)
        else:
            a = next(scores)
            s = h @ a
            e = c * np.exp(s - s.max())[None, :]
            denom = e.sum(axis=1, keepdims=True)
            m = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)
        tape.append((a, h, m))
        h = m @ h
    out = h @ p["w"] + p["b"]
    loss, d_out = _cross_entropy(out, labels)
    grads = {"w": h.T @ d_out, "b": d_out.sum(axis=0), "a": []}
    d_h = d_out @ p["w"].T
    for a, h_in, m in reversed(tape):
        d_in = m.T @ d_h
        if a is not None:
            d_m = d_h @ h_in.T
            d_s = (m * (d_m - (m * d_m).sum(axis=1, keepdims=True))
                   ).sum(axis=0)
            grads["a"].insert(0, h_in.T @ d_s)
            d_in += np.outer(d_s, a)
        d_h = d_in
    return out, loss, grads


def _chain_layer(chain, d_out):
    """A float64 MAGNN layer, ``W a + b``, whose three levels run
    ``chain`` (fresh UDFs, one score vector per attention level)."""
    layer = magnn(D_IN, d_out, d_out, num_layers=1, seed=5).layers[0]
    rng = np.random.default_rng(8)
    layer.aggregators = [
        AttentionAggregator(D_IN, rng=rng) if kind == "attention"
        else get_aggregator(kind) for kind in chain]
    for i, agg in enumerate(layer.aggregators):
        setattr(layer, f"_agg{i}", agg)
    layer.linear.bias.data[...] = np.linspace(0.2, 0.9, d_out)
    return layer.astype(np.float64)


#: reference parameter name -> attribute path on the layer
_PARAMS = {
    "sum": {"w": "linear.weight", "b": "linear.bias"},
    "concat": {"w": "linear.weight", "b": "linear.bias"},
    "gin": {"w": "fc1.weight", "b": "fc1.bias", "w2": "fc2.weight",
            "b2": "fc2.bias", "eps": "eps"},
    "gat": {"w": "linear.weight", "b": "linear.bias",
            "a": "_agg0.score_vector"},
}


def _param(layer, path):
    for part in path.split("."):
        layer = getattr(layer, part)
    return layer


def _randomize(model, kind):
    """Non-zero biases (and eps): a bias folded into the projection
    would be summed once per neighbor and show up here."""
    rng = np.random.default_rng(11)
    for layer in model.layers:
        for path in _PARAMS[kind].values():
            p = _param(layer, path)
            if p.data.ndim == 1:
                p.data[...] = rng.uniform(0.2, 0.9, p.data.shape)


def _orders():
    return [(e.attrs["order"], e.attrs["width"])
            for e in obs.get_registry().events if e.name == BACKEND_EVENT]


def _params(model, kind):
    """The reference's parameters: float64 copies of the model's."""
    return [{name: _param(layer, path).data.astype(np.float64)
             for name, path in _PARAMS[kind].items()}
            for layer in model.layers]


def _check(model, kind, loss, blocks, out_rows, labels, x):
    ref_loss, ref_grads = _reference(kind, _params(model, kind), x, blocks,
                                     out_rows, labels)
    _assert_matches(model, kind, loss, ref_loss, ref_grads)


def _assert_matches(model, kind, loss, ref_loss, ref_grads):
    """Loss and gradients against the reference: within :data:`TOL` for
    a float64 model, within :data:`TOL32` of each array's largest entry
    for a float32 one (whose gradients must stay float32)."""
    dtype = model.parameters()[0].data.dtype
    for layer in model.layers:
        for path in _PARAMS[kind].values():
            assert _param(layer, path).grad.dtype == dtype, path
    if dtype == np.float64:
        assert loss.item() == pytest.approx(ref_loss, rel=TOL, abs=TOL)
        for layer, grads in zip(model.layers, ref_grads):
            for name, path in _PARAMS[kind].items():
                np.testing.assert_allclose(
                    _param(layer, path).grad, grads[name], rtol=TOL, atol=TOL,
                    err_msg=f"{type(layer).__name__}.{path}")
        return
    assert loss.data.dtype == np.float32
    assert loss.item() == pytest.approx(ref_loss, rel=TOL32)
    for layer, grads in zip(model.layers, ref_grads):
        for name, path in _PARAMS[kind].items():
            got, want = _param(layer, path).grad, grads[name]
            assert np.abs(got - want).max() <= TOL32 * np.abs(want).max(), (
                f"{type(layer).__name__}.{path}")


#: float64 models: the reference's own dtype, so the 1e-10 bound holds
MODELS = {
    "gcn-sum": (lambda: gcn(D_IN, D_HID, D_OUT, seed=5).astype(np.float64),
                "sum", False),
    "gcn-mean": (lambda: gcn(D_IN, D_HID, D_OUT, seed=5,
                             aggregator="mean").astype(np.float64),
                 "sum", False),
    "gin": (lambda: gin(D_IN, D_HID, D_OUT, seed=5).astype(np.float64),
            "gin", False),
    "pinsage": (lambda: pinsage(D_IN, D_HID, D_OUT,
                                seed=5).astype(np.float64), "concat", True),
}


@pytest.fixture
def data():
    rng = np.random.default_rng(7)
    return rng.standard_normal((N, D_IN)), rng.integers(0, D_OUT, N)


class TestDenseReference:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_full_graph_projects_first_and_matches(self, name, data):
        factory, kind, weighted = MODELS[name]
        x, labels = data
        model = factory()
        _randomize(model, kind)
        hdg = _flat_hdg(weighted)
        obs.reset()
        loss = cross_entropy(model.forward(Tensor(x), hdg), labels)
        loss.backward()
        assert _orders() == [(PROJECT_FIRST, D_HID), (PROJECT_FIRST, D_OUT)]
        a = _adjacency(hdg, mean=name == "gcn-mean")
        rows = np.arange(N)
        _check(model, kind, loss, [(a, rows), (a, rows)], rows, labels, x)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_float32_full_graph_matches_within_the_fp32_bound(self, name,
                                                                data):
        """The float32 default against the same reference: the model's
        float32 weights and inputs are exact in float64."""
        factory, kind, weighted = MODELS[name]
        x, labels = data
        model = factory().astype(np.float32)
        _randomize(model, kind)
        x32 = x.astype(np.float32)
        hdg = _flat_hdg(weighted)
        loss = cross_entropy(model.forward(Tensor(x32), hdg), labels)
        loss.backward()
        a = _adjacency(hdg, mean=name == "gcn-mean")
        rows = np.arange(N)
        _check(model, kind, loss, [(a, rows), (a, rows)], rows, labels,
               x32.astype(np.float64))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sampled_block_reduces_first_and_matches(self, name, data):
        factory, kind, weighted = MODELS[name]
        x, labels = data
        model = factory()
        _randomize(model, kind)
        seeds = np.array([0, 1, 9])     # 0: the root with no in-edges
        compact = sample_blocks(_flat_hdg(weighted), seeds, [2, 2],
                                np.random.default_rng(1))
        x_local = x[compact.input_vertices]
        obs.reset()
        h = run_local_blocks(model, compact, Tensor(x_local), "ha")
        loss = cross_entropy(h[compact.seed_rows], labels[seeds])
        loss.backward()
        assert _orders() == [(REDUCE_FIRST, D_IN), (REDUCE_FIRST, D_HID)]
        blocks = [(_adjacency(block, mean=name == "gcn-mean"), rows)
                  for block, rows in compact.blocks]
        _check(model, kind, loss, blocks, compact.seed_rows, labels[seeds],
               x_local)

    def test_pgnn_three_mean_chain_matches_in_both_orders(self, data):
        """Anchor sets: a = mean over sets of the mean over members, the
        same row for every root — W [h ; a] with a dense averaging A."""
        x, labels = data
        sets = [(2, 5, 7), (0, 5, 11, 13)]
        instances = instance_arrays([(v, s, 0) for v in range(N) for s in sets])
        hdg = hdg_from_instance_arrays(SchemaTree(("anchor_set",)),
                                       np.arange(N), *instances, N)
        a_row = np.zeros(N)
        for s in sets:
            a_row[list(s)] += 1.0 / len(s) / len(sets)
        for roots, expect in ((np.arange(N), PROJECT_FIRST),
                              (np.array([0, 3]), REDUCE_FIRST)):
            model = pgnn(D_IN, D_HID, D_HID, num_layers=1,
                         seed=5).astype(np.float64)
            _randomize(model, "concat")
            block = hdg.restrict_to_roots(roots)
            obs.reset()
            out = model.layers[0].forward(Tensor(x), block, "ha", rows=roots)
            loss = cross_entropy(out, labels[roots])
            loss.backward()
            assert {order for order, _ in _orders()} == {expect}
            a = np.tile(a_row, (roots.size, 1))
            _check(model, "concat", loss, [(a, roots)], roots, labels[roots],
                   x)

    @pytest.mark.parametrize("strategy", ["ha", "sa+fa", "sa"])
    def test_gat_attention_matches_the_masked_softmax(self, strategy, data):
        """HA and SA+FA run the fused attention kernel, SA the scatter
        form; all three match the dense reference, including the root
        with no in-edges and the multi-edge."""
        x, labels = data
        model = gat(D_IN, D_HID, D_OUT, seed=5).astype(np.float64)
        _randomize(model, "gat")
        hdg = _flat_hdg(False)
        obs.reset()
        loss = cross_entropy(model.forward(Tensor(x), hdg, strategy),
                             labels)
        loss.backward()
        backend = "sparse" if strategy == "sa" else "fused"
        assert {e.attrs["backend"] for e in obs.get_registry().events
                if e.name == BACKEND_EVENT} == {backend}
        ref_loss, ref_grads = _gat_reference(_params(model, "gat"), x,
                                             _adjacency(hdg), labels)
        _assert_matches(model, "gat", loss, ref_loss, ref_grads)

    def test_float32_gat_matches_within_the_fp32_bound(self, data):
        x, labels = data
        model = gat(D_IN, D_HID, D_OUT, seed=5)
        _randomize(model, "gat")
        x32 = x.astype(np.float32)
        hdg = _flat_hdg(False)
        loss = cross_entropy(model.forward(Tensor(x32), hdg), labels)
        loss.backward()
        ref_loss, ref_grads = _gat_reference(
            _params(model, "gat"), x32.astype(np.float64), _adjacency(hdg),
            labels)
        _assert_matches(model, "gat", loss, ref_loss, ref_grads)

    @pytest.mark.parametrize("strategy", ["ha", "sa+fa", "sa"])
    def test_gat_projects_first_and_matches_the_masked_softmax(
            self, strategy, data):
        """A narrow first layer moves its projection below the attention,
        carrying ``a`` as one more column: width ``2 + 1``."""
        x, labels = data
        model = gat(D_IN, 2, D_OUT, seed=5).astype(np.float64)
        _randomize(model, "gat")
        hdg = _flat_hdg(False)
        obs.reset()
        loss = cross_entropy(model.forward(Tensor(x), hdg, strategy),
                             labels)
        loss.backward()
        assert _orders() == [(PROJECT_FIRST, 2 + 1), (REDUCE_FIRST, 2)]
        ref_loss, ref_grads = _gat_reference(_params(model, "gat"), x,
                                             _adjacency(hdg), labels)
        _assert_matches(model, "gat", loss, ref_loss, ref_grads)

    @pytest.mark.parametrize("strategy", ["ha", "sa+fa", "sa"])
    @pytest.mark.parametrize("chain", [("mean", "attention", "mean"),
                                       ("mean", "mean", "attention"),
                                       ("attention", "attention", "mean")],
                             ids=["magnn", "schema-attention",
                                  "two-attention"])
    def test_magnn_chain_matches_in_both_orders(self, chain, strategy, data):
        """MAGNN's ``W a + b`` over a typed graph; the same Update with
        the attention on the schema level (HA's dense backend), and with
        two attention levels (two carried columns, the bottom one last).
        The full graph projects first — each score column rides up
        through the levels below its attention — and a 3-root block
        reduces first; output, loss and every parameter gradient within
        1e-10."""
        x, labels = data
        d_out, labels = 2, labels % 2
        scored = chain.count("attention")
        hdg = _typed_hdg()
        for roots, expect in ((None, PROJECT_FIRST),
                              (np.array([0, 1, 9]), REDUCE_FIRST)):
            layer = _chain_layer(chain, d_out)
            block = hdg if roots is None else hdg.restrict_to_roots(roots)
            rows = np.arange(N) if roots is None else roots
            obs.reset()
            out = layer.forward(Tensor(x), block, strategy, rows=roots)
            loss = cross_entropy(out, labels[rows])
            loss.backward()
            orders = _orders()
            assert {order for order, _ in orders} == {expect}
            assert orders[0][1] == (d_out + scored if expect == PROJECT_FIRST
                                    else D_IN)
            attention = [agg for agg in layer.aggregators if agg.scored]
            params = {"w": layer.linear.weight.data,
                      "b": layer.linear.bias.data,
                      "a": [agg.score_vector.data for agg in attention]}
            ref_out, ref_loss, ref_grads = _chain_reference(
                chain, params, x, _level_counts(block), labels[rows])
            np.testing.assert_allclose(out.numpy(), ref_out, rtol=TOL,
                                       atol=TOL)
            assert loss.item() == pytest.approx(ref_loss, rel=TOL, abs=TOL)
            got = {"w": [layer.linear.weight.grad],
                   "b": [layer.linear.bias.grad],
                   "a": [agg.score_vector.grad for agg in attention]}
            for name, grads in got.items():
                want = ref_grads[name] if name == "a" else [ref_grads[name]]
                for g, w in zip(grads, want, strict=True):
                    np.testing.assert_allclose(
                        g, w, rtol=TOL, atol=TOL,
                        err_msg=f"{chain} {expect} {name}")

    def test_nonlinear_chains_never_project_first(self, data):
        x, _ = data
        hdg = _flat_hdg(False)
        obs.reset()
        gcn(D_IN, D_HID, D_OUT, aggregator="max").forward(Tensor(x), hdg)
        assert _orders() == [(REDUCE_FIRST, D_IN), (REDUCE_FIRST, D_HID)]

    def test_magnn_projects_first_through_its_attention(self):
        """MAGNN's mean → attention → mean is linear but for the
        attention's score, which the projection carries: the first layer
        reduces at ``d_out + 1`` up to the attention and ``d_out``
        above it; the second narrows too little to move."""
        ds = load_dataset("imdb", scale="tiny")
        model = magnn(ds.feat_dim, 4, ds.num_classes,
                      metapaths=default_metapaths(), seed=0)
        engine = FlexGraphEngine(model, ds.graph)
        obs.reset()
        engine.forward(Tensor(ds.features))
        hdg = engine.hdg_for_layer(1)
        assert not projects_first(reduced_rows(hdg), hdg.num_input_vertices,
                                  hdg.num_roots, 4, ds.num_classes, 1)
        assert _orders() == [(PROJECT_FIRST, 4 + 1), (PROJECT_FIRST, 4 + 1),
                             (PROJECT_FIRST, 4), (REDUCE_FIRST, 4),
                             (REDUCE_FIRST, 4), (REDUCE_FIRST, 4)]


# ----------------------------------------------------------------------
# the numeric bound against the hand-written Updates this replaced
# ----------------------------------------------------------------------
class _HandWritten:
    """Mixed into a converted layer: withdraw the declaration and write
    Update out as the models did before — the reference ordering —
    trained on the ``dataset`` its model runs on."""

    dataset = "reddit"

    def linear_update(self):
        return None


class _HandGCN(_HandWritten, GCNLayer):
    def update(self, feats, nbr_feats):
        out = self.linear(feats.add(nbr_feats))
        return out.relu() if self.activation else out


class _HandGIN(_HandWritten, GINLayer):
    def update(self, feats, nbr_feats):
        combined = feats * (self.eps + 1.0) + nbr_feats
        out = self.fc2(self.fc1(combined).relu())
        return out.relu() if self.activation else out


class _HandPinSage(_HandWritten, PinSageLayer):
    def update(self, feats, nbr_feats):
        out = self.linear(concat([feats, nbr_feats], axis=-1))
        return out.relu() if self.activation else out


class _HandGAT(_HandWritten, GATLayer):
    def update(self, feats, nbr_feats):
        out = self.linear(concat([feats, nbr_feats], axis=-1))
        return out.relu() if self.activation else out


class _HandMAGNN(_HandWritten, MAGNNLayer):
    dataset = "imdb"

    def update(self, feats, nbr_feats):
        out = self.linear(nbr_feats)
        return out.relu() if self.activation else out


def _thirty_losses(ds, factory, hand, dtype):
    """30 Adam epochs of ``factory``'s model in ``dtype``; with ``hand``
    its layers write Update out by hand (the reference ordering)."""
    model = factory(ds.feat_dim, 16, ds.num_classes, seed=3).astype(dtype)
    if hand is not None:
        for layer in model.layers:
            layer.__class__ = hand
    engine = FlexGraphEngine(model, ds.graph)
    opt = Adam(model.parameters(), 0.01)
    feats = Tensor(ds.features)
    return np.array([engine.train_epoch(feats, ds.labels, opt, ds.train_mask,
                                        epoch=e).loss for e in range(30)])


_HAND_WRITTEN = [
    (gcn, _HandGCN), (gin, _HandGIN),
    (lambda *a, **k: pinsage(*a, selection="ppr", **k), _HandPinSage),
    (gat, _HandGAT), (magnn, _HandMAGNN),
]


class TestNumericBound:
    @pytest.mark.parametrize("factory,hand", _HAND_WRITTEN)
    def test_thirty_epochs_within_1e9_of_the_hand_written_update(
            self, factory, hand):
        """Moving the projection reorders sums and turns ``W(h + a)``
        into ``Wh + Wa`` (and an attention's ``(P h) a`` into the
        carried ``P (h a)``): not bitwise, but the loss of 30 Adam
        epochs of a float64 model stays within 1e-9 relative."""
        ds = load_dataset(hand.dataset, scale="tiny")
        np.testing.assert_allclose(
            _thirty_losses(ds, factory, None, np.float64),
            _thirty_losses(ds, factory, hand, np.float64), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("factory,hand", _HAND_WRITTEN)
    def test_thirty_float32_epochs_within_the_fp32_bound(self, factory, hand):
        """The same in the float32 default.  A loss near zero has no
        useful relative bound, so each epoch is held to the scale of the
        first: the reordered neighbor sums (at most max in-degree terms)
        move it by at most (max in-degree) * eps32 of the first loss."""
        ds = load_dataset(hand.dataset, scale="tiny")
        moved = _thirty_losses(ds, factory, None, np.float32)
        reference = _thirty_losses(ds, factory, hand, np.float32)
        max_degree = int(np.diff(ds.graph.csc[0]).max())
        bound = max_degree * EPS32 * abs(reference[0])
        assert np.abs(moved - reference).max() <= bound


# ----------------------------------------------------------------------
# the count rule
# ----------------------------------------------------------------------
def _random_block(edges, rows, roots, seed=0):
    rng = np.random.default_rng(seed)
    root_ids = np.sort(rng.choice(rows, size=roots, replace=False))
    owners = np.concatenate([root_ids[:1], rng.choice(root_ids, edges - 1)])
    hdg = hdg_from_flat_arrays(SchemaTree(), root_ids, owners,
                               rng.integers(0, rows, edges), None, rows)
    return hdg, root_ids


class TestCountRule:
    CASES = [
        # E,   N,   R, d_in, d_out
        (400, 40, 40, 16, 4),    # full graph, narrowing: moves
        (400, 40, 40, 4, 16),    # widening: never moves
        (400, 40, 40, 8, 8),     # square: never moves
        (50, 45, 5, 16, 4),      # fan-out block, E ~ N: stays
        (400, 45, 5, 16, 4),     # dense block: moves
        (90, 60, 30, 16, 4),     # naive d_out < d_in would move; counts don't
        (12, 40, 40, 16, 15),    # barely narrowing, few edges
        (1, 1, 1, 2, 1),
    ]

    @pytest.mark.parametrize("edges,rows,roots,d_in,d_out", CASES)
    def test_order_is_the_argmin_of_the_two_mac_counts(
            self, edges, rows, roots, d_in, d_out):
        project = rows * d_in * d_out + edges * d_out
        reduce = edges * d_in + roots * d_in * d_out
        expected = PROJECT_FIRST if project < reduce else REDUCE_FIRST
        if d_out >= d_in:
            assert expected == REDUCE_FIRST
        assert projects_first(edges, rows, roots, d_in, d_out) == (
            expected == PROJECT_FIRST)

        hdg, root_ids = _random_block(edges, rows, roots)
        layer = GCNLayer(d_in, d_out)
        obs.reset()
        layer.forward(Tensor(np.ones((rows, d_in))), hdg, "ha", rows=root_ids)
        width = d_out if expected == PROJECT_FIRST else d_in
        assert _orders() == [(expected, width)]


    @pytest.mark.parametrize("d_out", [1, 2, 3, 4, 5])
    def test_every_level_and_each_score_column_is_priced(self, d_out):
        """MAGNN on the typed graph: the rows reduced are the leaf
        entries plus the instances plus the schema slots, each priced at
        ``d_out + 1`` when the projection carries the score column."""
        hdg = _typed_hdg()
        edges = (hdg.leaf_vertices.size + hdg.num_instances
                 + hdg.num_roots * 2)
        assert reduced_rows(hdg) == edges
        project = N * D_IN * (d_out + 1) + edges * (d_out + 1)
        reduce = edges * D_IN + N * D_IN * d_out
        expected = PROJECT_FIRST if project < reduce else REDUCE_FIRST
        layer = magnn(D_IN, d_out, d_out, num_layers=1, seed=5).layers[0]
        obs.reset()
        layer.forward(Tensor(np.ones((N, D_IN))), hdg, "ha")
        width = d_out + 1 if expected == PROJECT_FIRST else D_IN
        assert _orders()[0] == (expected, width)


# ----------------------------------------------------------------------
# counted work
# ----------------------------------------------------------------------
class _OpaqueSum(SumAggregator):
    """``sum`` that does not declare itself linear: same kernels, but
    the projection may not move across it."""

    linear = False


def _driver_epoch(model, hdg, feats, ds, opt):
    """One epoch as the engine runs it — aggregation, then update, per
    layer — over ``hdg`` as given."""
    h = feats
    for layer in model.layers:
        h = layer.update(h, layer.aggregation(h, hdg))
    loss = cross_entropy(h, ds.labels, ds.train_mask)
    opt.zero_grad()
    loss.backward()
    opt.step()


class TestCountedWork:
    def _epoch_work(self, ds, aggregator, engine=False):
        """Work of a second epoch over a hand-built HDG, which the
        reduction memo does not cover, or — ``engine=True`` — through
        the engine, whose STATIC HDG memoizes layer 0's reduction."""
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0,
                    aggregator=aggregator)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        if engine:
            runner = FlexGraphEngine(model, ds.graph)
            hdg = runner.hdg_for_layer(0)

            def epoch(e):
                runner.train_epoch(feats, ds.labels, opt, ds.train_mask, e)
        else:
            hdg = hdg_from_graph(ds.graph)

            def epoch(e):
                _driver_epoch(model, hdg, feats, ds, opt)
        epoch(0)
        before = obs.work_snapshot()
        epoch(1)
        return obs.work_since(before), hdg

    def test_full_graph_epoch_drops_by_the_predicted_amount(self):
        """Full graph (N == R): both orders run the same matmuls, so the
        whole difference is the segment sum running ``d_in - d_out``
        columns narrower — 2 FLOPs per edge-column, and one element (4
        bytes in the float32 default) per edge-column read plus per
        root-column written."""
        ds = load_dataset("reddit", scale="tiny")
        moved, hdg = self._epoch_work(ds, "sum")
        fixed, _ = self._epoch_work(ds, _OpaqueSum())
        edges, roots = hdg.leaf_vertices.size, hdg.num_roots
        narrower = (ds.feat_dim - 8) + (8 - ds.num_classes)
        item = 4
        assert narrower > 0
        assert fixed["flops"] - moved["flops"] == 2.0 * edges * narrower
        assert (fixed["bytes_read"] - moved["bytes_read"]
                == item * edges * narrower)
        assert (fixed["bytes_written"] - moved["bytes_written"]
                == item * roots * narrower)

    def test_memoized_epoch_drops_the_layer0_reduction(self):
        """The engine's second epoch against the same epoch over a
        hand-built HDG: layer 1 is the same, and layer 0 trades the
        projection ``X @ W``, its segment sum at ``d_out`` and its
        ``dW = X^T g`` for ``M @ W`` and ``dW = M^T g`` over the memo
        ``M`` — 2·R·d_in·d_out FLOPs each — and no reduction at all.
        (The segment sum's backward records no work of its own.)"""
        ds = load_dataset("reddit", scale="tiny")
        moved, hdg = self._epoch_work(ds, "sum")
        memo, _ = self._epoch_work(ds, "sum", engine=True)
        edges, roots = hdg.leaf_vertices.size, hdg.num_roots
        rows, d_in, d_out, item = ds.graph.num_vertices, ds.feat_dim, 8, 4
        projection = 2.0 * rows * d_in * d_out
        reduction = 2.0 * edges * d_out
        from_memo = 2.0 * roots * d_in * d_out
        assert (memo["flops"]
                == moved["flops"] - (2 * projection + reduction)
                + 2 * from_memo)
        # X and M have the same shape here (N == R): only the reduction's
        # reads (rows, offsets, edge ids) and writes are left over — less
        # the HDG the engine records handing to each layer's aggregation.
        handed = 2 * hdg.nbytes
        assert (moved["bytes_read"] - memo["bytes_read"]
                == item * edges * d_out + hdg.leaf_offsets.nbytes + 8 * edges
                - handed)
        assert (moved["bytes_written"] - memo["bytes_written"]
                == item * roots * d_out)

    def test_fanout_block_work_is_unchanged(self):
        ds = load_dataset("reddit", scale="tiny")
        compact = sample_blocks(hdg_from_graph(ds.graph), np.arange(8),
                                [3, 3], np.random.default_rng(0))
        feats = Tensor(ds.features[compact.input_vertices])

        def work(aggregator):
            model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0,
                        aggregator=aggregator)
            obs.reset()
            before = obs.work_snapshot()
            out = run_local_blocks(model, compact, feats, "ha")
            out.sum().backward()
            assert {order for order, _ in _orders()} == {REDUCE_FIRST}
            return obs.work_since(before)

        work("sum")     # builds the blocks' reduction plans, once
        assert work("sum") == work(_OpaqueSum())


# ----------------------------------------------------------------------
# aggregation + update == forward, serially and with two threads
# ----------------------------------------------------------------------
def _jobs():
    """``(feats, hdg, rows, expected order)``: the full graph moves the
    projection, the 3-root block does not."""
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((N, D_IN)))
    hdg = _flat_hdg(True)
    rows = np.array([0, 4, 9])
    return [(x, hdg, None, PROJECT_FIRST),
            (x, hdg.restrict_to_roots(rows), rows, REDUCE_FIRST)]


class TestStagesComposeToForward:
    @pytest.mark.parametrize("factory", [gcn, pinsage])
    def test_aggregation_then_update_is_bitwise_forward(self, factory):
        layer = factory(D_IN, D_HID, D_OUT, seed=5).layers[0]
        for x, hdg, rows, expected in _jobs():
            obs.reset()
            whole = layer.forward(x, hdg, "ha", rows=rows)
            nbr = layer.aggregation(x, hdg, "ha")
            assert {order for order, _ in _orders()} == {expected}
            assert nbr.shape == (hdg.num_roots, D_HID)
            split = layer.update(x if rows is None else x[rows], nbr)
            assert np.array_equal(whole.numpy(), split.numpy())

    @pytest.mark.parametrize("kind", ["gat", "magnn"])
    def test_attention_aggregation_then_update_is_bitwise_forward(self,
                                                                  kind):
        """The carried score column changes nothing here: with the self
        term two halves of one weight (GAT) or absent (MAGNN), both
        orders split into the two stages bitwise."""
        if kind == "gat":
            layer, hdg = gat(D_IN, 2, D_OUT, seed=5).layers[0], _flat_hdg(False)
        else:
            layer = magnn(D_IN, 2, D_OUT, num_layers=1, seed=5).layers[0]
            hdg = _typed_hdg()
        x = Tensor(np.random.default_rng(2).standard_normal((N, D_IN)))
        rows = np.array([0, 4, 9])
        for block, roots, expected in ((hdg, None, PROJECT_FIRST),
                                       (hdg.restrict_to_roots(rows), rows,
                                        REDUCE_FIRST)):
            obs.reset()
            whole = layer.forward(x, block, "ha", rows=roots)
            nbr = layer.aggregation(x, block, "ha")
            assert {order for order, _ in _orders()} == {expected}
            assert nbr.shape == (block.num_roots, layer.output_dim)
            split = layer.update(x if roots is None else x[roots], nbr)
            assert np.array_equal(whole.numpy(), split.numpy())

    def test_two_threads_one_model_both_orders(self):
        """serve runs two workers through one model: a layer keeps no
        per-call state, so interleaved blocks that choose different
        orders give exactly the serial results."""
        model = gcn(D_IN, D_HID, D_OUT, seed=5)
        jobs = _jobs()

        def run(job):
            x, hdg, rows, _ = job
            h = model.layers[0].forward(x, hdg, "ha", rows=rows)
            return h.numpy().copy()

        serial = [run(job) for job in jobs]
        failures, barrier = [], threading.Barrier(2)

        def worker(first):
            barrier.wait(timeout=10)
            for i in range(200):
                k = (first + i) % 2
                if not np.array_equal(run(jobs[k]), serial[k]):
                    failures.append((first, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
