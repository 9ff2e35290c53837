"""An HDG that outlives the epoch memoizes its reduction of a constant
input (``HDG.memoized_reduction``, chosen in
``GNNLayer._projected_aggregation``).

Pinned here: a STATIC engine's second epoch runs no layer-0 reduction
and stays within the reorder bound of an unmarked run; the memo is keyed
on the input's bytes (an in-place edit rebuilds it, a fresh copy of the
same bytes reuses it); every eligible call gives the same bits; each
ineligible case keeps its order and builds nothing; the rank blocks of
a STATIC model are marked, and pickling keeps the mark but not the memo.
"""

import copy
import gc
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core import FlexGraphEngine, MiniBatchTrainer
from repro.core.hdg import (
    MEMO_BUILD_COUNTER,
    MEMO_BYTES_COUNTER,
    MEMO_HIT_COUNTER,
    hdg_from_graph,
)
from repro.core.hybrid import (
    BACKEND_EVENT,
    MEMO_BLOCK_COLUMNS,
    MEMOIZED,
    PROJECT_FIRST,
)
from repro.core.step import epoch_counts, epoch_mark, node_loss, train_step
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer
from repro.graph import hash_partition
from repro.models import gat, gcn, pinsage
from repro.tensor import Adam, Tensor, no_grad

EPS32 = float(np.finfo(np.float32).eps)
HIDDEN = 8


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


def _orders():
    return [e.attrs["order"] for e in obs.get_registry().events
            if e.name == BACKEND_EVENT]


def _epochs():
    return [e.attrs for e in obs.get_registry().events if e.name == "epoch"]


def _driver_epoch(model, hdg, feats, ds, opt):
    """One epoch as the engine runs it — aggregation, then update, per
    layer — over ``hdg`` as given (a hand-built one is never marked)."""
    h = feats
    for layer in model.layers:
        h = layer.update(h, layer.aggregation(h, hdg))
    loss = node_loss(h, ds.labels, ds.train_mask)
    train_step(loss, opt)
    return loss.item()


class TestEngine:
    def test_epochs_after_the_first_run_no_layer0_reduction(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=0)
        reference = copy.deepcopy(model)
        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        obs.reset()
        orders, losses = [], []
        for epoch in range(4):
            mark = len(_orders())
            losses.append(engine.train_epoch(feats, ds.labels, opt,
                                             ds.train_mask, epoch).loss)
            orders.append(_orders()[mark:])
        blocks = -(-ds.feat_dim // MEMO_BLOCK_COLUMNS)
        # Epoch 0 builds the memo, one reduction per column block; then
        # only layer 1 reduces.
        assert orders[0][:blocks] == [MEMOIZED] * blocks
        assert len(orders[0]) == blocks + 1
        for later in orders[1:]:
            assert len(later) == 1 and MEMOIZED not in later
        assert [e["memo_builds"] for e in _epochs()] == [1, 0, 0, 0]
        assert [e["memo_hits"] for e in _epochs()] == [0, 1, 1, 1]

        # The memo reduces before it projects: a reordered sum of at
        # most max-in-degree terms, against the projected order over a
        # hand-built (unmarked) HDG.
        hdg = hdg_from_graph(ds.graph)
        ref_opt = Adam(reference.parameters(), 0.01)
        ref_losses = [_driver_epoch(reference, hdg, feats, ds, ref_opt)
                      for _ in range(4)]
        max_degree = int(np.diff(ds.graph.csc[0]).max())
        bound = max_degree * EPS32 * abs(ref_losses[0])
        assert np.abs(np.subtract(losses, ref_losses)).max() <= bound

    def test_in_place_feature_edit_equals_a_fresh_engine(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=1)
        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        X = ds.features.copy()
        feats = Tensor(X)
        engine.train_epoch(feats, ds.labels, opt, ds.train_mask, 0)
        fresh_model, fresh_opt = copy.deepcopy((model, opt))
        X[::3] *= 0.5      # the same array object, other bytes
        before = epoch_mark()
        edited = engine.train_epoch(feats, ds.labels, opt, ds.train_mask, 1)
        assert _memo_since(before)["memo_builds"] == 1   # rebuilt, not reused
        fresh = FlexGraphEngine(fresh_model, ds.graph).train_epoch(
            Tensor(X.copy()), ds.labels, fresh_opt, ds.train_mask, 1)
        assert edited.loss == fresh.loss
        for a, b in zip(model.parameters(), fresh_model.parameters()):
            assert np.array_equal(a.data, b.data)


class TestEligibleCall:
    def _call(self, layer, hdg, feats):
        layer.zero_grad()
        out = layer.update(feats, layer.aggregation(feats, hdg))
        out.sum().backward()
        return out.data, [p.grad.copy() for p in layer.parameters()]

    def test_first_and_fifth_call_are_bitwise_equal(self, ds):
        layer = gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=2).layers[0]
        hdg = hdg_from_graph(ds.graph)
        hdg.persistent = True
        feats = Tensor(ds.features)
        before = epoch_mark()
        first = self._call(layer, hdg, feats)
        for _ in range(3):
            self._call(layer, hdg, feats)
        # A fresh copy of the same bytes: identity does not decide.
        fifth = self._call(layer, hdg, Tensor(ds.features.copy()))
        assert _memo_since(before) == {"memo_hits": 4, "memo_builds": 1}
        assert np.array_equal(first[0], fifth[0])
        for a, b in zip(first[1], fifth[1]):
            assert np.array_equal(a, b)

    def test_bytes_are_held_until_the_hdg_dies(self, ds):
        layer = gcn(ds.feat_dim, HIDDEN, ds.num_classes).layers[0]
        hdg = hdg_from_graph(ds.graph)
        hdg.persistent = True
        gc.collect()   # no earlier test's memo is freed during this one
        held = obs.counter(MEMO_BYTES_COUNTER)
        start = held.current
        X = ds.features
        layer.aggregation(Tensor(X), hdg)
        size = X.nbytes + hdg.num_roots * X.shape[1] * X.itemsize
        assert held.current - start == size
        layer.aggregation(Tensor(X + 1), hdg)    # replaced, not added
        assert held.current - start == size
        del hdg
        gc.collect()
        assert held.current == start

    def test_pickle_keeps_the_mark_not_the_memo(self, ds):
        layer = gcn(ds.feat_dim, HIDDEN, ds.num_classes).layers[0]
        hdg = hdg_from_graph(ds.graph)
        hdg.persistent = True
        feats = Tensor(ds.features)
        layer.aggregation(feats, hdg)
        shipped = pickle.loads(pickle.dumps(hdg))
        assert shipped.persistent
        before = epoch_mark()
        layer.aggregation(feats, shipped)
        assert _memo_since(before) == {"memo_hits": 0, "memo_builds": 1}


def _memo_since(mark):
    """The ``memo_hits`` / ``memo_builds`` an epoch event would carry."""
    counts = epoch_counts(mark)
    return {key: counts[key] for key in ("memo_hits", "memo_builds")}


def _unchanged(run):
    """Run ``run`` and assert it built and reused no memo and reduced
    in no memoized order; returns the orders it reduced in."""
    obs.reset()
    before = epoch_mark()
    run()
    assert _memo_since(before) == {"memo_hits": 0, "memo_builds": 0}
    assert MEMOIZED not in _orders()
    return _orders()


class TestIneligible:
    def test_no_grad(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)
        orders = _unchanged(lambda: engine.predict(feats))
        assert orders[0] == PROJECT_FIRST

    def test_sampled_blocks(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64,
                                   fanouts=[3, 3])
        opt = Adam(model.parameters(), 0.01)
        _unchanged(lambda: trainer.train_epoch(
            Tensor(ds.features), ds.labels, opt, ds.train_mask, 0))
        assert trainer.hdgs.model_hdg.persistent   # its blocks are not

    def test_per_epoch_selection(self, ds):
        model = pinsage(ds.feat_dim, HIDDEN, ds.num_classes, num_traces=4)
        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        _unchanged(lambda: [engine.train_epoch(feats, ds.labels, opt,
                                               ds.train_mask, e)
                            for e in range(2)])
        assert not engine.hdg_for_layer(0, 1).persistent

    def test_attention(self, ds):
        model = gat(ds.feat_dim, HIDDEN, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        _unchanged(lambda: [engine.train_epoch(feats, ds.labels, opt,
                                               ds.train_mask, e)
                            for e in range(2)])
        assert engine.hdg_for_layer(0).persistent

    def test_hand_built_hdg(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes)
        hdg = hdg_from_graph(ds.graph)
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        orders = _unchanged(lambda: [_driver_epoch(model, hdg, feats, ds, opt)
                                     for _ in range(2)])
        assert orders[0] == orders[2] == PROJECT_FIRST
        assert not hdg.persistent

    def test_no_grad_over_a_built_memo_leaves_it_alone(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        feats = Tensor(ds.features)
        engine.train_epoch(feats, ds.labels, Adam(model.parameters(), 0.01),
                           ds.train_mask, 0)
        with no_grad():
            _unchanged(lambda: engine.forward(feats))


class TestDistributed:
    def test_static_rank_blocks_are_marked_and_hit(self, ds):
        model = gcn(ds.feat_dim, HIDDEN, ds.num_classes)
        trainer = DistributedTrainer(model, ds.graph,
                                     hash_partition(ds.graph.num_vertices, 2))
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        obs.reset()
        for epoch in range(3):
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch)
        assert all(rank.block.persistent for rank in trainer.ranks)
        assert [e["memo_builds"] for e in _epochs()] == [2, 0, 0]
        assert [e["memo_hits"] for e in _epochs()] == [0, 2, 2]
        assert obs.counter(MEMO_HIT_COUNTER).total == 4
        assert obs.counter(MEMO_BUILD_COUNTER).total == 2

    def test_per_epoch_rank_blocks_are_not_marked(self, ds):
        model = pinsage(ds.feat_dim, HIDDEN, ds.num_classes, num_traces=4)
        trainer = DistributedTrainer(model, ds.graph,
                                     hash_partition(ds.graph.num_vertices, 2))
        trainer.train_epoch(Tensor(ds.features), ds.labels,
                            Adam(model.parameters(), 0.01), ds.train_mask, 0)
        assert not any(rank.block.persistent for rank in trainer.ranks)
