"""The fused attention kernel (``segment_attention``).

Two things are pinned here:

* an oracle: the fused kernel against the SA form it replaces
  (``AttentionAggregator.sparse`` over gathered member rows) on the
  output and on the gradients of ``values`` and ``score_vector`` —
  within 1e-12 relative in float64, over empty, single-member and hub
  segments, both plan layouts, and ``values`` with and without grad;
* packing: a carried ``[XW | s]`` projection goes into the kernel whole
  — bit for bit the split ``(values, scores)`` call, with no slice on
  the tape and one gradient for the level's input;
* counted work: a GAT forward + backward under HA and SA+FA keeps one
  scalar per edge per layer (no per-edge × width tensor), SA still
  materializes the messages Figure 14 contrasts, and the FLOPs stay
  counted.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import FlexGraphEngine
from repro.core.aggregation import AttentionAggregator
from repro.core.hybrid import (
    BACKEND_EVENT,
    PROJECT_FIRST,
    hierarchical_aggregate,
)
from repro.datasets import load_dataset
from repro.models import gat, magnn
from repro.tensor import (
    ReductionPlan,
    Tensor,
    cross_entropy,
    materialized_bytes,
    reset_materialized_bytes,
    segment_attention,
)

DIM = 6
ROWS = 60
#: float64 agreement between the fused kernel and the SA form
TOL = 1e-12


def _offsets():
    """Segments: empty (isolated vertices), single members, a hub of 400
    members, and a few ordinary ones."""
    counts = np.array([0, 1, 0, 5, 1, 400, 0, 3, 1, 2, 7, 0, 1])
    return np.concatenate([[0], np.cumsum(counts)])


def _gathered_plan():
    offsets = _offsets()
    src = np.random.default_rng(0).integers(0, ROWS, offsets[-1])
    return ReductionPlan.from_segments(offsets, src, ROWS)


def _identity_plan():
    offsets = _offsets()
    return ReductionPlan.from_segments(offsets, None, int(offsets[-1]))


def _run(agg, x, plan, fused, values_grad=True):
    """Output and gradients (values, score vector) of one reduction."""
    agg.score_vector.grad = None
    values = Tensor(x.copy(), requires_grad=values_grad)
    if fused:
        out = agg.fused(values, plan)
    else:
        rows = values if plan.gather is None else values[plan.gather]
        out = agg.sparse(rows, plan.pregathered())
    weights = np.random.default_rng(9).standard_normal(out.shape)
    (out * Tensor(weights)).sum().backward()
    return out.data, values.grad, agg.score_vector.grad


def _rel(a, b):
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max()
                 / np.abs(b.astype(np.float64)).max())


@pytest.mark.parametrize("layout", ["gathered", "identity"])
@pytest.mark.parametrize("values_grad", [True, False])
def test_fused_matches_the_sa_form(layout, values_grad):
    plan = _gathered_plan() if layout == "gathered" else _identity_plan()
    rng = np.random.default_rng(1)
    agg = AttentionAggregator(DIM, rng=rng)
    x = rng.standard_normal((plan.num_rows, DIM)) * 2.0
    fused = _run(agg, x, plan, True, values_grad)
    sparse = _run(agg, x, plan, False, values_grad)
    assert _rel(fused[0], sparse[0]) <= TOL
    assert _rel(fused[2], sparse[2]) <= TOL
    if values_grad:
        assert _rel(fused[1], sparse[1]) <= TOL
    else:
        assert fused[1] is None and sparse[1] is None
    # empty segments are zero rows, single members pass through unchanged
    counts = plan.counts
    assert not fused[0][counts == 0].any()
    single = np.flatnonzero(counts == 1)
    members = plan.offsets[single] if plan.gather is None else \
        plan.gather[plan.offsets[single]]
    np.testing.assert_allclose(fused[0][single], x[members], rtol=TOL)


def test_no_members_gives_zeros_and_zero_grads():
    plan = ReductionPlan.from_segments(np.zeros(4, dtype=np.int64),
                                       np.array([], dtype=np.int64), 5)
    agg = AttentionAggregator(DIM)
    out, d_x, d_a = _run(agg, np.ones((5, DIM)), plan, True)
    assert out.shape == (3, DIM) and not out.any()
    assert not d_x.any() and not d_a.any()


def test_an_index_built_plan_is_the_same_plan():
    """A plan built from an unsorted destination index is the gathered
    layout of its stable-sort permutation: attention over it is attention
    over those segments, bit for bit."""
    index = np.array([1, 0, 1, 2, 0, 1])
    index_plan = ReductionPlan.from_index(index, 4)
    segments = ReductionPlan.from_segments(index_plan.offsets,
                                           np.argsort(index, kind="stable"),
                                           index.size)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((index.size, DIM))
    s = rng.standard_normal((index.size, 1))
    a, b = (segment_attention(Tensor(x), Tensor(s), plan).data
            for plan in (index_plan, segments))
    assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# a carried score column stays packed
# ----------------------------------------------------------------------
def _model_level(name):
    """(hdg, aggregators, input rows) of layer 0 of a tiny GAT or MAGNN."""
    ds = load_dataset("imdb" if name == "magnn" else "reddit", scale="tiny",
                      seed=0)
    model = (magnn if name == "magnn" else gat)(ds.feat_dim, 8,
                                                ds.num_classes, seed=0)
    hdg = FlexGraphEngine(model, ds.graph, seed=0).hdg_for_layer(0)
    return hdg, model.layers[0].aggregators, ds.features.shape[0]


def _real_plan(name):
    """MAGNN's level-2 plan (identity layout) or GAT's (gathered)."""
    hdg, _, rows = _model_level(name)
    if name == "magnn":
        return hdg.plan(2)
    return hdg.plan(hdg.max_level, rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["gathered", "identity", "gat", "magnn"])
def test_packed_matches_the_split_call_bitwise(layout, dtype):
    """``segment_attention(xs, None, plan)`` over a packed ``[x | s]`` is
    the split call ``segment_attention(x, s, plan)`` bit for bit: the
    output, and the one packed gradient against the two split ones."""
    plan = {"gathered": _gathered_plan, "identity": _identity_plan}.get(
        layout, lambda: _real_plan(layout))()
    assert (plan.gather is None) == (layout in ("identity", "magnn"))
    rng = np.random.default_rng(5)
    xs = (rng.standard_normal((plan.num_rows, DIM + 1)) * 2.0).astype(dtype)
    grad = rng.standard_normal((plan.n, DIM)).astype(dtype)
    packed = Tensor(xs.copy(), requires_grad=True)
    values = Tensor(xs[:, :DIM].copy(), requires_grad=True)
    scores = Tensor(xs[:, DIM:].copy(), requires_grad=True)
    out = segment_attention(packed, None, plan)
    ref = segment_attention(values, scores, plan)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == ref.data.tobytes()
    out.backward(grad)
    ref.backward(grad)
    assert packed.grad.shape == xs.shape and packed.grad.dtype == dtype
    assert packed.grad[:, :DIM].tobytes() == values.grad.tobytes()
    assert packed.grad[:, DIM:].tobytes() == scores.grad.tobytes()


def _tape(out):
    """Every node on ``out``'s tape, and how many nodes read each one."""
    nodes, readers, stack = {}, {}, [out]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        for parent in node._parents:
            readers[id(parent)] = readers.get(id(parent), 0) + 1
            stack.append(parent)
    return list(nodes.values()), readers


def _ops(nodes, name):
    return [node for node in nodes if node._backward is not None
            and name in node._backward.__qualname__]


@pytest.mark.parametrize("name", ["gat", "magnn"])
def test_project_first_attention_takes_its_input_whole(name):
    """Under project-first the fused attention level reads the carried
    ``[XW | s]`` whole: no slice node enters the tape, and the level's
    input has one reader, so it receives exactly one gradient."""
    hdg, aggregators, rows = _model_level(name)
    feats = Tensor(np.random.default_rng(6).standard_normal((rows, DIM + 1)),
                   requires_grad=True)
    out = hierarchical_aggregate(hdg, feats, aggregators, "ha", PROJECT_FIRST)
    nodes, readers = _tape(out)
    assert not _ops(nodes, "__getitem__")
    (attention,) = _ops(nodes, "segment_attention")
    (level_input,) = attention._parents
    assert readers[id(level_input)] == 1
    assert (level_input is feats) == (name == "gat")


# ----------------------------------------------------------------------
# counted work of one GAT forward + backward
# ----------------------------------------------------------------------
def _gat_step(strategy):
    """(bytes materialized, FLOPs, edges, width the first layer reduces
    at, itemsize of the model's dtype) of one forward + backward after a
    warm-up forward that builds the plans."""
    ds = load_dataset("reddit", scale="tiny")
    model = gat(ds.feat_dim, 8, ds.num_classes, seed=0)
    engine = FlexGraphEngine(model, ds.graph, strategy=strategy, seed=0)
    feats = Tensor(ds.features)
    engine.forward(feats)
    reset_materialized_bytes()
    obs.reset()
    before = obs.work_snapshot()
    loss = cross_entropy(engine.forward(feats), ds.labels, ds.train_mask)
    loss.backward()
    edges = engine.hdg_for_layer(0).leaf_vertices.size
    width = next(e.attrs["width"] for e in obs.get_registry().events
                 if e.name == BACKEND_EVENT)
    return (materialized_bytes(), obs.work_since(before)["flops"], edges,
            width, model.layers[0].linear.weight.data.itemsize)


@pytest.mark.parametrize("strategy", ["ha", "sa+fa"])
def test_fused_gat_materializes_scalars_not_messages(strategy):
    """Two layers keep one attention weight per edge each, in the model's
    dtype (float32: 2 * E * 4 bytes); the SA form materializes at least
    the gathered first-layer messages, at the width that layer reduces
    at."""
    fused, fused_flops, edges, width, itemsize = _gat_step(strategy)
    sparse, sparse_flops, _, _, _ = _gat_step("sa")
    assert itemsize == 4
    assert 0 < fused <= 2 * edges * itemsize
    assert sparse >= edges * width * itemsize
    # the work is still counted, and of the SA form's order
    assert fused_flops > 0
    assert 0.5 * sparse_flops <= fused_flops <= 2.0 * sparse_flops
