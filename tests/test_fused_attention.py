"""The fused attention kernel (``segment_attention``).

Two things are pinned here:

* an oracle: the fused kernel against the SA form it replaces
  (``AttentionAggregator.sparse`` over gathered member rows) on the
  output and on the gradients of ``values`` and ``score_vector`` —
  within 1e-12 relative in float64, over empty, single-member and hub
  segments, both plan layouts, and ``values`` with and without grad;
  float16 with the bounds stated at the test;
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
from repro.datasets import load_dataset
from repro.models import gat
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
        out = agg.sparse(rows, plan.member_plan())
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


def test_float16_values_with_a_float64_score_vector():
    """A float64 parameter promotes the op to float64 (as ``x * a`` does
    in the SA form): the output agrees within 1e-12; the values gradient
    is rounded to float16 on both paths, so it agrees within 2**-10 of
    the largest entry."""
    plan = _gathered_plan()
    rng = np.random.default_rng(2)
    agg = AttentionAggregator(DIM, rng=rng)
    x = rng.standard_normal((ROWS, DIM)).astype(np.float16)
    fused = _run(agg, x, plan, True)
    sparse = _run(agg, x, plan, False)
    assert fused[0].dtype == np.float64 and fused[1].dtype == np.float16
    assert _rel(fused[0], sparse[0]) <= TOL
    assert _rel(fused[2], sparse[2]) <= TOL
    assert _rel(fused[1], sparse[1]) <= 2.0 ** -10


def test_all_float16_accumulates_in_float32():
    """float16 values and score vector: scores, softmax and both sums run
    in float32 and only the result is narrowed, so the output is within
    2**-10 (one float16 ulp) of the float64 result relative to its
    largest entry."""
    plan = _gathered_plan()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((ROWS, DIM)).astype(np.float16)
    a = (rng.standard_normal(DIM) / np.sqrt(DIM)).astype(np.float16)
    half = segment_attention(Tensor(x), Tensor(a), plan)
    full = segment_attention(Tensor(x.astype(np.float64)),
                             Tensor(a.astype(np.float64)), plan)
    assert half.data.dtype == np.float16
    assert _rel(half.data, full.data) <= 2.0 ** -10


def test_requires_a_segments_plan():
    index_plan = ReductionPlan.from_index(np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError, match="segment_attention requires"):
        segment_attention(Tensor(np.ones((3, 2))), Tensor(np.ones(2)),
                          index_plan)


# ----------------------------------------------------------------------
# counted work of one GAT forward + backward
# ----------------------------------------------------------------------
def _gat_step(strategy):
    """(bytes materialized, FLOPs, edges, input width) of one forward +
    backward after a warm-up forward that builds the plans."""
    ds = load_dataset("reddit", scale="tiny")
    model = gat(ds.feat_dim, 8, ds.num_classes, seed=0)
    engine = FlexGraphEngine(model, ds.graph, strategy=strategy, seed=0)
    feats = Tensor(ds.features)
    engine.forward(feats)
    reset_materialized_bytes()
    before = obs.work_snapshot()
    loss = cross_entropy(engine.forward(feats), ds.labels, ds.train_mask)
    loss.backward()
    edges = engine.hdg_for_layer(0).leaf_vertices.size
    return (materialized_bytes(), obs.work_since(before)["flops"], edges,
            ds.feat_dim)


@pytest.mark.parametrize("strategy", ["ha", "sa+fa"])
def test_fused_gat_materializes_scalars_not_messages(strategy):
    """Two layers keep one float64 attention weight per edge each; the SA
    form materializes at least the gathered first-layer messages."""
    fused, fused_flops, edges, width = _gat_step(strategy)
    sparse, sparse_flops, _, _ = _gat_step("sa")
    itemsize = np.dtype(np.float64).itemsize
    assert 0 < fused <= 2 * edges * itemsize
    assert sparse >= edges * width * itemsize
    # the work is still counted, and of the SA form's order
    assert fused_flops > 0
    assert 0.5 * sparse_flops <= fused_flops <= 2.0 * sparse_flops
