"""Reduction-plan layer: kernel parity vs naive references, plan
ownership and lifetime (a plan lives on the HDG it describes), and
steady-state (zero rebuild) behavior."""

import gc
import pickle

import numpy as np
import pytest

from repro import models, obs
from repro.core import (
    FlexGraphEngine,
    MiniBatchTrainer,
    hierarchical_aggregate,
)
from repro.core.aggregation import SumAggregator
from repro.core.hdg import hdg_from_graph
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer, MultiprocessTrainer
from repro.graph import Graph, community_graph, hash_partition
from repro.serve import InferenceSession
from repro.tensor import Adam, Tensor, no_grad
from repro.tensor import plans as plans_module
from repro.tensor.plans import PlanCache, ReductionPlan, get_plan_cache
from repro.tensor.scatter import (
    scatter_add,
    scatter_max,
    scatter_mean,
    scatter_min,
    scatter_softmax,
    segment_attention,
    segment_reduce_csr,
)

DTYPES = (np.float32, np.float64)


@pytest.fixture
def fresh_cache(monkeypatch):
    """A zeroed process-wide plan view for one test, so counts are
    absolute and HDGs other tests left alive are not in ``stats()``."""
    monkeypatch.setattr(plans_module, "_PLAN_CACHE", PlanCache())
    return get_plan_cache()


def _case(dtype, seed=0):
    rng = np.random.default_rng(seed)
    # Out-of-order index with empty destinations (4 and 6) and repeats.
    index = np.array([3, 0, 0, 2, 5, 5, 5, 1, 3, 0, 2, 5], dtype=np.int64)
    n = 7
    values = rng.standard_normal((index.size, 4)).astype(dtype)
    grad = rng.standard_normal((n, 4)).astype(dtype)
    return values, index, n, grad


def _naive_add(values, index, n):
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def _naive_extremum(values, index, n, kind):
    fill = -np.inf if kind == "max" else np.inf
    out = np.full((n,) + values.shape[1:], fill, dtype=values.dtype)
    ufunc = np.maximum if kind == "max" else np.minimum
    ufunc.at(out, index, values)
    out[np.bincount(index, minlength=n) == 0] = 0.0
    return out


class TestKernelParity:
    """Rewritten reducers match the old ufunc.at semantics exactly."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_add(self, dtype):
        values, index, n, grad = _case(dtype)
        t = Tensor(values, requires_grad=True)
        out = scatter_add(t, index, n)
        assert out.data.dtype == dtype
        np.testing.assert_allclose(out.data, _naive_add(values, index, n),
                                   atol=1e-5)
        out.backward(grad)
        np.testing.assert_allclose(t.grad, grad[index], atol=1e-6)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_mean(self, dtype):
        values, index, n, grad = _case(dtype)
        t = Tensor(values, requires_grad=True)
        out = scatter_mean(t, index, n)
        assert out.data.dtype == dtype, "float32 must stay float32"
        counts = np.maximum(np.bincount(index, minlength=n), 1)
        ref = _naive_add(values, index, n) / counts[:, None].astype(dtype)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)
        out.backward(grad)
        np.testing.assert_allclose(
            t.grad, grad[index] / counts[index][:, None], atol=1e-5
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["max", "min"])
    def test_scatter_extrema(self, dtype, kind):
        values, index, n, grad = _case(dtype)
        fn = scatter_max if kind == "max" else scatter_min
        t = Tensor(values, requires_grad=True)
        out = fn(t, index, n)
        ref = _naive_extremum(values, index, n, kind)
        np.testing.assert_allclose(out.data, ref)
        out.backward(grad)
        winner = (values == ref[index]).astype(dtype)
        ties = np.zeros((n,) + values.shape[1:])
        np.add.at(ties, index, winner)
        ties = np.maximum(ties, 1.0)
        np.testing.assert_allclose(
            t.grad, winner * grad[index] / ties[index], atol=1e-6
        )

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_softmax(self, dtype):
        values, index, n, _ = _case(dtype)
        t = Tensor(values, requires_grad=True)
        out = scatter_softmax(t, index, n)
        assert out.data.dtype == dtype
        gmax = np.full((n,) + values.shape[1:], -np.inf, dtype=dtype)
        np.maximum.at(gmax, index, values)
        e = np.exp(values - gmax[index])
        denom = np.zeros((n,) + values.shape[1:], dtype=dtype)
        np.add.at(denom, index, e)
        ref = e / denom[index]
        np.testing.assert_allclose(out.data, ref, atol=1e-5)
        g = np.random.default_rng(1).standard_normal(values.shape).astype(dtype)
        out.backward(g)
        dot = np.zeros((n,) + values.shape[1:], dtype=dtype)
        np.add.at(dot, index, g * ref)
        np.testing.assert_allclose(t.grad, ref * (g - dot[index]), atol=1e-4)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("reducer", ["sum", "mean", "max", "min"])
    def test_segment_matches_scatter(self, dtype, reducer):
        values, index, n, grad = _case(dtype)
        order = np.argsort(index, kind="stable")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(index, minlength=n), out=offsets[1:])
        t1 = Tensor(values, requires_grad=True)
        t2 = Tensor(values, requires_grad=True)
        seg = segment_reduce_csr(t1, offsets, order, reducer)
        scatter = {"sum": scatter_add, "mean": scatter_mean,
                   "max": scatter_max, "min": scatter_min}[reducer]
        sca = scatter(t2, index, n)
        assert seg.data.dtype == dtype
        np.testing.assert_allclose(seg.data, sca.data, atol=1e-5)
        seg.backward(grad)
        sca.backward(grad)
        np.testing.assert_allclose(t1.grad, t2.grad, atol=1e-5)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("reducer", ["sum", "mean"])
    @pytest.mark.parametrize("layout", ["gathered", "identity"])
    def test_segment_backward_is_the_transpose_product(self, dtype, reducer,
                                                       layout):
        """The sum/mean backward is ``M.T @ g`` for the forward's matrix
        ``M``, bit for bit: each source row adds its segments' gradients
        in segment order."""
        rng = np.random.default_rng(4)
        offsets = np.array([0, 3, 3, 4, 9, 12])
        # repeated sources inside a segment and across segments
        sources = (np.array([2, 0, 2, 5, 1, 1, 3, 0, 6, 4, 0, 2])
                   if layout == "gathered" else None)
        rows = 7 if layout == "gathered" else 12
        plan = ReductionPlan.from_segments(offsets, sources, rows)
        dst, src = plan.index, (np.arange(12) if sources is None
                                else sources)
        dense = np.zeros((plan.n, rows), dtype=dtype)
        np.add.at(dense, (dst, src), 1)
        counts = np.maximum(plan.counts, 1).astype(dtype)[:, None]
        integer = rng.integers(-9, 9, (plan.n, 4)).astype(dtype)
        for grad in (integer, rng.standard_normal((plan.n, 4)).astype(dtype)):
            value = Tensor(rng.standard_normal((rows, 4)).astype(dtype),
                           requires_grad=True)
            segment_reduce_csr(value, reducer=reducer, plan=plan).backward(
                grad)
            scaled = grad / counts if reducer == "mean" else grad
            ordered = np.zeros((rows, 4), dtype=dtype)
            np.add.at(ordered, src, scaled[dst])
            assert value.grad.tobytes() == ordered.tobytes()
            if reducer == "sum" and grad is integer:
                # integer gradients sum exactly in any order
                assert value.grad.tobytes() == (dense.T @ grad).tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_weighted_sum_planned(self, dtype):
        values, index, n, grad = _case(dtype)
        weights = np.random.default_rng(2).uniform(0.5, 2.0, index.size)
        plan = ReductionPlan.from_index(index, n)
        t1 = Tensor(values, requires_grad=True)
        t2 = Tensor(values, requires_grad=True)
        w = Tensor(weights.reshape(-1, 1))
        out1 = scatter_add(t1 * w, index, n)
        out2 = scatter_add(t2 * w, None, None, plan=plan)
        np.testing.assert_allclose(out1.data, out2.data, atol=1e-6)

    def test_empty_and_single_segment(self):
        empty = Tensor(np.zeros((0, 3)), requires_grad=True)
        out = scatter_add(empty, np.zeros(0, dtype=np.int64), 4)
        assert out.shape == (4, 3) and np.all(out.data == 0)
        out = scatter_max(empty, np.zeros(0, dtype=np.int64), 4)
        assert np.all(out.data == 0)
        values = np.arange(12.0).reshape(4, 3)
        single = scatter_mean(Tensor(values), np.zeros(4, dtype=np.int64), 1)
        np.testing.assert_allclose(single.data, values.mean(0, keepdims=True))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", ["gathered", "identity"])
    @pytest.mark.parametrize("name", ["add", "mean", "max", "min",
                                      "softmax"])
    def test_scatter_over_a_segments_plan(self, dtype, layout, name):
        """A ``scatter_*`` op takes any plan: over a ``from_segments``
        plan it gives what it gives over ``from_index`` of the index
        that plan describes, forward and backward."""
        values, index, n, grad = _case(dtype)
        if layout == "identity":
            index = np.sort(index)
        fn = {"add": scatter_add, "mean": scatter_mean, "max": scatter_max,
              "min": scatter_min, "softmax": scatter_softmax}[name]
        by_index = ReductionPlan.from_index(index, n)
        sources = by_index.gather if layout == "gathered" else None
        by_segments = ReductionPlan.from_segments(by_index.offsets, sources,
                                                  index.size)
        if name == "softmax":
            grad = np.random.default_rng(1).standard_normal(
                values.shape).astype(dtype)
        results = []
        for plan in (by_index, by_segments):
            t = Tensor(values, requires_grad=True)
            out = fn(t, plan=plan)
            out.backward(grad)
            results.append((out.data, t.grad))
        (out_i, grad_i), (out_s, grad_s) = results
        assert out_s.dtype == grad_s.dtype == dtype
        assert out_s.tobytes() == out_i.tobytes()
        # equal up to the sign of a zero gradient
        np.testing.assert_array_equal(grad_s, grad_i)

    def test_out_of_range_index_rejected(self):
        values = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError):
            scatter_add(values, np.array([0, 1, 5]), 3)
        with pytest.raises(ValueError):
            scatter_add(values, np.array([0, -1, 2]), 3)

    def test_plan_value_row_mismatch_rejected(self):
        plan = ReductionPlan.from_index(np.array([0, 1, 0]), 2)
        with pytest.raises(ValueError):
            scatter_add(Tensor(np.ones((5, 2))), plan=plan)
        with pytest.raises(ValueError):
            segment_reduce_csr(Tensor(np.ones((5, 2))), plan=plan)


class TestPlanObject:
    def test_from_index_structures(self):
        index = np.array([2, 0, 2, 2])
        plan = ReductionPlan.from_index(index, 4)
        np.testing.assert_array_equal(plan.counts, [1, 0, 3, 0])
        np.testing.assert_array_equal(plan.offsets, [0, 1, 1, 4, 4])
        np.testing.assert_array_equal(plan.starts, [0, 1])
        # the members in segment order, and each one's segment
        np.testing.assert_array_equal(plan.gather, [1, 0, 2, 3])
        np.testing.assert_array_equal(plan.index, [0, 2, 2, 2])
        # matrix @ ones == counts
        m = plan.matrix(np.float64)
        np.testing.assert_array_equal(m @ np.ones(4), plan.counts)
        # the transpose is the same three arrays read as CSC, no copy
        t = plan.matrix(np.float64).T
        assert t.format == "csc" and t.shape == (4, 4)
        assert all(np.shares_memory(a, b) for a, b in (
            (t.data, m.data), (t.indices, m.indices), (t.indptr, m.indptr)))
        np.testing.assert_array_equal(t @ np.ones(4), np.ones(4))

    @pytest.mark.parametrize("build", ["from_index", "from_segments",
                                       "pregathered"])
    def test_build_records_the_plan_bytes(self, build):
        """``plan.build`` writes what the new plan holds (its
        :attr:`nbytes` at build) and reads the index it sorted."""
        index = np.array([3, 0, 0, 2, 5, 5, 1, 3])
        order = np.argsort(index, kind="stable")
        offsets = ReductionPlan.from_index(index, 7).offsets
        gathered = ReductionPlan.from_segments(offsets, order, index.size)
        obs.reset()
        if build == "from_index":
            plan, read = ReductionPlan.from_index(index, 7), index.nbytes
        elif build == "from_segments":
            plan, read = ReductionPlan.from_segments(offsets, order,
                                                     index.size), 0
        else:
            plan, read = gathered.pregathered(), 0
        assert plan.nbytes > 0
        assert obs.counter("profile.op.plan.build.bytes").total == (
            read + plan.nbytes)
        assert obs.counter("profile.bytes_written").total == plan.nbytes

    def test_safe_counts_dtype(self):
        plan = ReductionPlan.from_index(np.array([0, 0, 2]), 3)
        assert plan.safe_counts(np.float32).dtype == np.float32
        np.testing.assert_array_equal(plan.safe_counts(np.float64), [2, 1, 1])

    def test_from_segments_validation(self):
        with pytest.raises(ValueError):
            ReductionPlan.from_segments(np.array([1, 2]), None, 1)
        with pytest.raises(ValueError):
            ReductionPlan.from_segments(np.array([0, 2, 1]), None, 2)
        with pytest.raises(ValueError):
            ReductionPlan.from_segments(np.array([0, 2]), np.array([0, 7]), 3)

    def test_nbytes_grows_with_lazy_artifacts(self):
        plan = ReductionPlan.from_index(np.arange(10) % 3, 3)
        before = plan.nbytes
        plan.matrix(np.float64)
        assert plan.nbytes > before
        grown = plan.nbytes
        plan.safe_counts(np.float64)
        assert plan.nbytes > grown
        grown = plan.nbytes
        # a transpose view is no artifact
        plan.matrix(np.float64).T
        assert plan.nbytes == grown

    def test_a_read_only_gather_is_copied_once(self):
        """A plan over a graph's read-only CSC hands take/bincount one
        kept writeable copy; a writeable gather is handed as it is."""
        graph = community_graph(60, 4, 8.0)
        indptr, indices = graph.csc
        shared = hdg_from_graph(graph).plan(1, 60)
        assert np.shares_memory(shared.gather, indices)
        copy = shared.writable_gather()
        assert copy.flags.writeable and not np.shares_memory(copy, indices)
        np.testing.assert_array_equal(copy, indices)
        assert shared.writable_gather() is copy
        own = ReductionPlan.from_segments(indptr, indices.copy(), 60)
        assert own.writable_gather() is own.gather


class TestPlanCache:
    def test_hit_miss_and_counters(self, fresh_cache):
        obs.reset()
        hdg = hdg_from_graph(community_graph(12, 2, 3, seed=0))
        p1 = hdg.plan(1, 12)
        p2 = hdg.plan(1, 12)
        assert p1 is p2
        assert fresh_cache.hits == 1 and fresh_cache.misses == 1
        assert fresh_cache.builds == 1
        assert obs.counter("plan.cache.hit").total == 1
        assert obs.counter("plan.cache.miss").total == 1
        assert obs.counter("plan.cache.build").total == 1
        stats = fresh_cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] == p1.nbytes > 0
        assert stats["hit_rate"] == 0.5

    def test_key_structure_separates_shapes(self, fresh_cache):
        # Same level, differently shaped call -> its own plan.
        hdg = hdg_from_graph(community_graph(12, 2, 3, seed=0))
        seg = hdg.plan(1, 12)
        wider = hdg.plan(1, 20)
        assert seg is not wider and (seg.num_rows, wider.num_rows) == (12, 20)
        assert fresh_cache.stats()["entries"] == 2
        with pytest.raises(ValueError):
            hdg.plan(2)          # flat HDG: no instance level
        with pytest.raises(ValueError):
            hdg.plan(1)          # the bottom level gathers: needs num_rows


class TestVersioning:
    """Graph edits must never reuse a stale plan."""

    def _graph(self, edges):
        src, dst = np.array(edges, dtype=np.int64).T
        return Graph(5, src, dst)

    def test_edited_graph_uses_fresh_plan(self, fresh_cache):
        g1 = self._graph([(0, 1), (1, 2), (2, 3), (0, 4)])
        feats = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
        h1 = hdg_from_graph(g1)
        out1 = hierarchical_aggregate(h1, feats, [SumAggregator()], "sa")
        assert fresh_cache.misses == 1
        # Same HDG again: pure hit.
        hierarchical_aggregate(h1, feats, [SumAggregator()], "sa")
        assert fresh_cache.misses == 1 and fresh_cache.hits == 1
        # Edited graph: new HDG, new plan, result reflects the edit.
        g2 = g1.with_edges_added(np.array([[3, 0]]))
        h2 = hdg_from_graph(g2)
        out2 = hierarchical_aggregate(h2, feats, [SumAggregator()], "sa")
        assert fresh_cache.misses == 2
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(out1.data, out2.data)
        # Reference: the edited result is correct, not a stale reuse.
        dst, src = h2.sub_graph(1)
        ref = np.zeros((5, 4))
        np.add.at(ref, dst, feats.data[src])
        np.testing.assert_allclose(out2.data, ref, atol=1e-6)


class TestNoTranspose:
    """No pass builds a transpose: a backward reads the forward's CSR
    arrays as CSC, so training holds what inference holds."""

    @staticmethod
    def _plan():
        return ReductionPlan.from_segments(
            np.array([0, 2, 2, 5]), np.array([4, 0, 1, 1, 3]), 5)

    def test_no_grad_forward_builds_no_transpose(self):
        plan = self._plan()
        with no_grad():
            segment_reduce_csr(Tensor(np.ones((5, 3), dtype=np.float32)),
                               plan=plan)
        assert list(plan._matrices) == [np.dtype(np.float32).str]
        assert not hasattr(plan, "matrix_t")

    def test_backward_builds_no_transpose(self):
        plan = self._plan()
        for dtype in (np.float32, np.float64, np.float32):
            value = Tensor(np.ones((5, 3), dtype=dtype), requires_grad=True)
            out = segment_reduce_csr(value, reducer="mean", plan=plan)
            after_forward = plan.nbytes
            out.backward(np.ones(out.shape, dtype=dtype))
            assert value.grad.dtype == dtype
            assert plan.nbytes == after_forward
        # one forward matrix per dtype, and nothing else
        assert sorted(plan._matrices) == sorted(
            np.dtype(t).str for t in (np.float32, np.float64))

    @pytest.mark.parametrize("name", ["gcn", "gat", "magnn"])
    def test_training_backward_adds_no_plan_bytes(self, fresh_cache, name):
        """Across a whole training backward, no plan of any level grows
        by more than the per-edge destination index an attention SDDMM
        reads (``plan.index``, built on first use)."""
        ds = load_dataset("imdb" if name == "magnn" else "reddit",
                          scale="tiny", seed=0)
        model = getattr(models, name)(ds.feat_dim, 8, ds.num_classes,
                                      seed=0)
        engine = FlexGraphEngine(model, ds.graph, seed=0)
        feats = Tensor(ds.features)
        out = engine.forward(feats)
        plans = [p for memo in fresh_cache._live() for p in memo.plans()]
        assert plans
        before = [(p.nbytes, p._index is not None) for p in plans]
        (out * Tensor(np.ones_like(out.data))).sum().backward()
        for plan, (nbytes, had_index) in zip(plans, before):
            index_bytes = 0 if had_index else plan.index.nbytes
            assert plan.nbytes == nbytes + index_bytes


class TestPlanLifetime:
    """A plan lives exactly as long as the HDG it describes — counted,
    clock-free."""

    @pytest.fixture(scope="class")
    def ds(self):
        return load_dataset("reddit", scale="tiny", seed=0)

    @pytest.mark.parametrize("prefetch_depth", [0, 2])
    def test_sampled_training_plan_bytes_do_not_grow(self, fresh_cache,
                                                     prefetch_depth):
        graph = community_graph(2000, 4, 8, seed=0)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((2000, 8))
        labels = rng.integers(0, 4, 2000)
        model = models.gcn(8, 8, 4, seed=0)
        trainer = MiniBatchTrainer(model, graph, batch_size=256,
                                   fanouts=[5, 5], seed=0,
                                   prefetch_depth=prefetch_depth)
        opt = Adam(model.parameters(), lr=0.01)
        live = []
        for epoch in range(12):
            trainer.train_epoch(feats, labels, opt, epoch=epoch)
            live.append(fresh_cache.stats()["bytes"])
        assert fresh_cache.builds > 12, "every sampled batch builds its own"
        assert live[11] == live[1], live

    def test_no_serving_plan_outlives_its_request(self, fresh_cache, ds):
        model = models.gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        session = InferenceSession(model, ds.graph, ds.features,
                                   embed_cache_bytes=0)
        gc.collect()
        before = fresh_cache.stats()["bytes"]
        rng = np.random.default_rng(1)
        for _ in range(500):
            session.predict(rng.choice(ds.graph.num_vertices, 3, replace=False))
        assert fresh_cache.builds >= 500, "every request builds its own plans"
        gc.collect()
        assert fresh_cache.stats()["bytes"] == before
        assert session.stats()["plan_cache"] == fresh_cache.stats()

    def _epochs(self, trainer, ds, count):
        feats = Tensor(ds.features)
        opt = Adam(trainer.model.parameters(), lr=0.01)
        for epoch in range(count):
            before = obs.counter("plan.cache.miss").total
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch)
            yield epoch, obs.counter("plan.cache.miss").total - before

    @pytest.mark.parametrize("kind", ["engine", "simulated", "process"])
    def test_zero_builds_after_the_first_epoch(self, fresh_cache, ds, kind):
        obs.reset()
        model = models.gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        part = hash_partition(ds.graph.num_vertices, 2)
        if kind == "engine":
            trainer = FlexGraphEngine(model, ds.graph, seed=0)
        elif kind == "simulated":
            trainer = DistributedTrainer(model, ds.graph, part, seed=0)
        else:
            # Workers build plans in their own processes; the counters
            # they ship back at epoch end are merged into this registry.
            trainer = MultiprocessTrainer(model, ds.graph, part, seed=0)
        try:
            built = dict(self._epochs(trainer, ds, 3))
        finally:
            if kind == "process":
                trainer.close()
        assert built[0] > 0 and built[1] == built[2] == 0, built

    @pytest.mark.parametrize("kind", ["engine", "simulated", "process"])
    def test_epoch_events_carry_the_six_counts(self, ds, kind):
        """Every trainer's ``epoch`` event counts the same six fields off
        the obs counters; the process trainer's include what its workers
        merged in."""
        obs.reset()
        model = models.gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        part = hash_partition(ds.graph.num_vertices, 2)
        if kind == "engine":
            trainer = FlexGraphEngine(model, ds.graph, seed=0)
        elif kind == "simulated":
            trainer = DistributedTrainer(model, ds.graph, part, seed=0)
        else:
            trainer = MultiprocessTrainer(model, ds.graph, part, seed=0)
        try:
            list(self._epochs(trainer, ds, 3))
        finally:
            if kind == "process":
                trainer.close()
        events = [e.attrs for e in obs.get_registry().events
                  if e.name == "epoch"]
        assert len(events) == 3
        assert all(e["flops"] > 0 and e["work_bytes"] > 0 for e in events)
        # Plans and layer 0's memo are built in the first epoch only.
        for built, reused in (("plan_misses", "plan_hits"),
                              ("memo_builds", "memo_hits")):
            assert events[0][built] > 0
            assert [e[built] for e in events[1:]] == [0, 0]
            assert all(e[reused] > 0 for e in events[1:])

    def test_plans_die_with_their_engine_and_clear_forgets(self, fresh_cache,
                                                           ds):
        model = models.gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, seed=0)
        epochs = self._epochs(engine, ds, 3)
        assert next(epochs)[1] > 0
        assert fresh_cache.stats()["entries"] > 0
        # clear(): every live HDG forgets, the next epoch rebuilds.
        fresh_cache.clear()
        assert fresh_cache.stats()["entries"] == 0
        assert fresh_cache.stats()["bytes"] == 0
        assert next(epochs)[1] > 0
        assert next(epochs)[1] == 0
        assert fresh_cache.stats()["bytes"] > 0
        # The plans' lifetime is their HDG's.
        epochs.close()
        del engine, epochs
        gc.collect()
        stats = fresh_cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0

    @pytest.mark.parametrize("strategy", ["sa", "ha"])
    def test_plans_are_neither_pickled_nor_counted_as_hdg_storage(
            self, ds, strategy):
        hdg = hdg_from_graph(ds.graph)
        pickled, nbytes = len(pickle.dumps(hdg)), hdg.nbytes
        out = hierarchical_aggregate(hdg, Tensor(ds.features),
                                     [SumAggregator()], strategy)
        assert hdg._plans.plans()
        assert len(pickle.dumps(hdg)) <= pickled
        assert hdg.nbytes == nbytes
        clone = pickle.loads(pickle.dumps(hdg))
        assert not clone._plans.plans()
        again = hierarchical_aggregate(clone, Tensor(ds.features),
                                       [SumAggregator()], strategy)
        np.testing.assert_array_equal(again.data, out.data)


class TestSteadyState:
    def test_engine_zero_misses_after_first_epoch(self, fresh_cache):
        obs.reset()
        ds = load_dataset("reddit", scale="tiny", seed=0)
        model = models.gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        engine = FlexGraphEngine(model, ds.graph, strategy="sa", seed=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        feats = Tensor(ds.features)
        for epoch in range(3):
            misses_before = fresh_cache.misses
            engine.train_epoch(feats, ds.labels, optimizer, ds.train_mask,
                               epoch)
            if epoch > 0:
                assert fresh_cache.misses == misses_before, (
                    "plan rebuilt after the first epoch"
                )
                assert fresh_cache.hits > 0

    def test_record_op_memo_survives_registry_reset(self):
        from repro.obs.profile import record_op

        obs.reset()
        record_op("memo_probe", flops=1.0)
        assert obs.counter("profile.op.memo_probe.flops").total == 1.0
        obs.reset()
        record_op("memo_probe", flops=2.0)
        # A stale memoized handle would add onto the pre-reset Counter
        # object and leave the fresh registry at zero.
        assert obs.counter("profile.op.memo_probe.flops").total == 2.0


_HALF_INDEX = np.array([0, 1, 1, 2, 0], dtype=np.int64)


@pytest.mark.parametrize("reduce", [
    lambda v, plan: scatter_add(v, _HALF_INDEX, 3),
    lambda v, plan: scatter_mean(v, _HALF_INDEX, 3),
    lambda v, plan: scatter_max(v, _HALF_INDEX, 3),
    lambda v, plan: scatter_min(v, _HALF_INDEX, 3),
    lambda v, plan: scatter_softmax(v, _HALF_INDEX, 3),
    lambda v, plan: segment_reduce_csr(v, reducer="sum", plan=plan),
    lambda v, plan: segment_reduce_csr(v, reducer="mean", plan=plan),
    lambda v, plan: segment_reduce_csr(v, reducer="max", plan=plan),
    lambda v, plan: segment_reduce_csr(v, reducer="min", plan=plan),
    lambda v, plan: segment_attention(
        v, Tensor(np.ones((5, 1), dtype=np.float32)), plan),
], ids=["scatter_add", "scatter_mean", "scatter_max", "scatter_min",
        "scatter_softmax", "segment_sum", "segment_mean", "segment_max",
        "segment_min", "segment_attention"])
def test_reducers_reject_float16_values(reduce):
    """float16 is a storage codec, never a compute dtype: every reducer
    names it instead of computing in it or silently upcasting (scipy's
    SpMM returns float32 for float16 operands)."""
    plan = ReductionPlan.from_segments(
        np.array([0, 2, 2, 5]), np.array([4, 0, 1, 1, 3]), 5)
    value = Tensor(np.ones((5, 3), dtype=np.float16), requires_grad=True)
    with pytest.raises(TypeError, match="got float16 values"):
        reduce(value, plan)
