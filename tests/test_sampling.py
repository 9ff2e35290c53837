"""Tests for fan-out sampling and the mini-batch trainer."""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    FlexGraphEngine,
    MiniBatchTrainer,
    build_block,
    build_seed_blocks,
    validate_hdg,
)
from repro.core.hdg import HDG, hdg_from_graph
from repro.core.schema import SchemaTree
from repro.core.step import sample_fanout
from repro.datasets import load_dataset
from repro.models import gcn, magnn, pinsage
from repro.storage import OnDiskDataset, write_ondisk_dataset
from repro.tensor import Adam, Tensor, scatter_rows


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestScatterRows:
    def test_forward(self):
        rows = Tensor(np.arange(6.0).reshape(3, 2))
        out = scatter_rows(rows, np.array([4, 0, 2]), 5)
        np.testing.assert_allclose(out.numpy()[4], [0.0, 1.0])
        np.testing.assert_allclose(out.numpy()[1], [0.0, 0.0])

    def test_gradient(self):
        rows = Tensor(np.ones((2, 3)), requires_grad=True)
        out = scatter_rows(rows, np.array([1, 3]), 4)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(rows.grad, np.full((2, 3), 2.0))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((2, 1))), np.array([0, 0]), 3)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.ones((2, 1))), np.array([0]), 3)


class TestSampleFanout:
    def test_caps_fan_in(self, ds):
        hdg = hdg_from_graph(ds.graph)
        sampled = sample_fanout(hdg, 5, np.random.default_rng(0))
        assert np.diff(sampled.leaf_offsets).max() <= 5
        validate_hdg(sampled)

    def test_sampled_leaves_are_subset(self, ds):
        hdg = hdg_from_graph(ds.graph)
        sampled = sample_fanout(hdg, 3, np.random.default_rng(1))
        for v in range(0, ds.graph.num_vertices, 37):
            lo, hi = sampled.leaf_offsets[v], sampled.leaf_offsets[v + 1]
            full = set(ds.graph.in_neighbors(v).tolist())
            assert set(sampled.leaf_vertices[lo:hi].tolist()) <= full

    def test_noop_when_under_fanout(self, ds):
        hdg = hdg_from_graph(ds.graph)
        max_deg = int(np.diff(hdg.leaf_offsets).max())
        assert sample_fanout(hdg, max_deg + 1, np.random.default_rng(0)) is hdg

    def test_weights_renormalized(self, ds):
        model = pinsage(ds.feat_dim, 8, ds.num_classes)
        hdg = model.neighbor_selection(ds.graph, np.random.default_rng(0))
        sampled = sample_fanout(hdg, 3, np.random.default_rng(0))
        counts = np.diff(sampled.leaf_offsets)
        owner = np.repeat(np.arange(sampled.num_roots), counts)
        sums = np.bincount(owner, weights=sampled.leaf_weights,
                           minlength=sampled.num_roots)
        # HDG weights are float32: each of a root's <= 3 kept weights is
        # rounded once (<= eps32/2 relative) and bincount adds them in
        # float64, so a sum misses 1 by at most 3 * eps32 / 2.
        eps32 = float(np.finfo(np.float32).eps)
        np.testing.assert_allclose(sums[counts > 0], 1.0, rtol=1.5 * eps32)

    def test_rejects_hierarchical(self):
        from repro.core.selection import build_metapath_hdg
        from repro.graph import Metapath, heterogeneous_graph

        g = heterogeneous_graph(20, 5, 12, seed=0)
        hdg = build_metapath_hdg(g, [Metapath((0, 1, 0))])
        with pytest.raises(ValueError):
            sample_fanout(hdg, 5, np.random.default_rng(0))

    def test_rejects_bad_fanout(self, ds):
        with pytest.raises(ValueError):
            sample_fanout(hdg_from_graph(ds.graph), 0, np.random.default_rng(0))


def _star_hdg(degree: int, roots: int = 1) -> HDG:
    """``roots`` roots, each with leaves ``0..degree-1`` in CSC order."""
    leaves = np.tile(np.arange(degree, dtype=np.int64), roots)
    offsets = np.arange(roots + 1, dtype=np.int64) * degree
    return HDG(np.arange(roots), SchemaTree(), leaves, offsets,
               num_input_vertices=max(degree, roots))


class TestFanoutSampler:
    def test_uniform_distinct_and_in_csc_order(self):
        """A degree-40 root at fan-out 10, drawn 4,000 times: each
        neighbour is kept with probability 1/4, so its count is
        Binomial(4000, 1/4) — mean 1,000, sd ≈ 27.4 — and must lie
        within 5 sd (137) of the mean."""
        degree, fanout, draws = 40, 10, 4_000
        hdg = _star_hdg(degree)
        rng = np.random.default_rng(0)
        counts = np.zeros(degree, dtype=np.int64)
        for _ in range(draws):
            kept = build_block(hdg, np.array([0]), fanout, rng).leaf_vertices
            assert kept.size == fanout
            # leaf id = CSC position here: strictly increasing means the
            # kept leaves are distinct and in CSC order
            assert np.all(np.diff(kept) > 0)
            counts[kept] += 1
        mean = draws * fanout / degree
        sd = np.sqrt(draws * (fanout / degree) * (1 - fanout / degree))
        assert np.abs(counts - mean).max() <= 5 * sd

    def test_rows_are_sampled_independently(self):
        """Floyd's steps run over all roots at once; each root must still
        get its own subset."""
        hdg = _star_hdg(40, roots=64)
        block = build_block(hdg, np.arange(64), 10, np.random.default_rng(1))
        subsets = {tuple(row) for row in block.leaf_vertices.reshape(64, 10)}
        assert len(subsets) > 60

    def test_memmap_hdg_matches_in_ram(self, ds, tmp_path):
        root = str(tmp_path / "ondisk")
        write_ondisk_dataset(ds, root)
        mm = hdg_from_graph(OnDiskDataset(root).graph)
        ram = hdg_from_graph(ds.graph)
        assert isinstance(mm.leaf_vertices, np.memmap)
        assert not isinstance(ram.leaf_vertices, np.memmap)
        seeds = np.array([0, 3, 17, 42, ds.graph.num_vertices - 1])
        a = build_seed_blocks(mm, seeds, [4, 3], np.random.default_rng(5))
        b = build_seed_blocks(ram, seeds, [4, 3], np.random.default_rng(5))
        assert len(a) == len(b) == 2
        for (block_a, out_a), (block_b, out_b) in zip(a, b):
            np.testing.assert_array_equal(out_a, out_b)
            np.testing.assert_array_equal(block_a.roots, block_b.roots)
            np.testing.assert_array_equal(block_a.leaf_offsets,
                                          block_b.leaf_offsets)
            np.testing.assert_array_equal(block_a.leaf_vertices,
                                          block_b.leaf_vertices)

    @pytest.mark.parametrize("fanout", [1, 3, 10, 1_000])
    def test_reads_exactly_the_kept_leaves(self, ds, fanout):
        """The ``sample.fanout`` op counts leaf entries read:
        Σ min(degree, fanout) over the block's roots, never Σ degree."""
        hdg = hdg_from_graph(ds.graph)
        degrees = np.diff(hdg.leaf_offsets)
        roots = np.arange(0, ds.graph.num_vertices, 3)
        read = obs.counter("profile.op.sample.fanout.bytes")
        before = read.total
        block = build_block(hdg, roots, fanout, np.random.default_rng(2))
        entries = (read.total - before) / hdg.leaf_vertices.itemsize
        assert entries == block.leaf_vertices.size
        assert entries == np.minimum(degrees[roots], fanout).sum()


class TestMiniBatchTrainer:
    def test_validation(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        with pytest.raises(ValueError):
            MiniBatchTrainer(model, ds.graph, batch_size=0)
        with pytest.raises(ValueError):
            MiniBatchTrainer(model, ds.graph, fanouts=[5])  # 2 layers

    def test_rejects_hierarchical_models(self, ds):
        model = magnn(ds.feat_dim, 8, ds.num_classes, max_instances_per_root=5)
        trainer = MiniBatchTrainer(model, ds.graph)
        with pytest.raises(ValueError):
            trainer.train_epoch(Tensor(ds.features), ds.labels,
                                Adam(model.parameters(), 0.01))

    def test_gcn_learns(self, ds):
        model = gcn(ds.feat_dim, 16, ds.num_classes, aggregator="mean")
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[5, 5])
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        losses = [
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e).loss
            for e in range(5)
        ]
        assert losses[-1] < losses[0]

    def test_pinsage_learns(self, ds):
        model = pinsage(ds.feat_dim, 16, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[5, 5])
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        losses = [
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e).loss
            for e in range(5)
        ]
        assert losses[-1] < losses[0]

    def test_batch_count(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=32)
        stats = trainer.train_epoch(Tensor(ds.features), ds.labels,
                                    Adam(model.parameters(), 0.01), ds.train_mask)
        expected = int(np.ceil(ds.train_mask.sum() / 32))
        assert stats.num_batches == expected

    def test_evaluate_uses_full_neighborhoods(self, ds):
        model = gcn(ds.feat_dim, 16, ds.num_classes, seed=3, aggregator="mean")
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[4, 4])
        acc_untrained = trainer.evaluate(Tensor(ds.features), ds.labels, ds.test_mask)
        assert 0.0 <= acc_untrained <= 1.0
        # Must equal the full-batch engine's evaluation for the same model.
        engine = FlexGraphEngine(model, ds.graph)
        ref = engine.evaluate(Tensor(ds.features), ds.labels, ds.test_mask)
        assert acc_untrained == pytest.approx(ref)

    def test_blocks_shrink_with_fanout(self, ds):
        """Sampling is the point: blocks must be far smaller than full
        2-hop neighborhoods on a dense graph."""
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=16, fanouts=[3, 3])
        hdg = trainer.hdgs.block_source(0)
        seeds = np.arange(16)
        blocks = build_seed_blocks(hdg, seeds, trainer.fanouts,
                                   trainer.hdgs.rng)
        input_block, input_vertices = blocks[0]
        # Full 2-hop of 16 seeds on this graph is ~ the whole graph.
        assert input_vertices.size < ds.graph.num_vertices / 2
        assert np.diff(input_block.leaf_offsets).max() <= 3

    def test_converges_to_useful_accuracy(self, ds):
        model = gcn(ds.feat_dim, 32, ds.num_classes, aggregator="mean")
        trainer = MiniBatchTrainer(model, ds.graph, batch_size=64, fanouts=[8, 8])
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        for e in range(10):
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e)
        acc = trainer.evaluate(feats, ds.labels, ds.test_mask)
        assert acc > 0.8
