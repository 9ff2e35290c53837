"""Tests for distributed sampled mini-batch training and per-type
feature projection."""

import numpy as np
import pytest

from repro.core import FlexGraphEngine, TypeProjection
from repro.datasets import load_dataset
from repro.distributed import DistributedMiniBatchTrainer
from repro.graph import hash_partition
from repro.models import gcn, magnn, pinsage
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture(scope="module")
def imdb():
    return load_dataset("imdb", scale="tiny")


class TestDistributedMiniBatch:
    def test_validation(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        with pytest.raises(ValueError):
            DistributedMiniBatchTrainer(model, ds.graph, np.zeros(3, dtype=int))
        labels = hash_partition(ds.graph.num_vertices, 2)
        with pytest.raises(ValueError):
            DistributedMiniBatchTrainer(model, ds.graph, labels, batch_size=0)
        with pytest.raises(ValueError):
            DistributedMiniBatchTrainer(model, ds.graph, labels, fanouts=[3])

    def test_rejects_hierarchical_models(self, ds):
        model = magnn(ds.feat_dim, 8, ds.num_classes, max_instances_per_root=5)
        trainer = DistributedMiniBatchTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2)
        )
        with pytest.raises(ValueError):
            trainer.train_epoch(Tensor(ds.features), ds.labels,
                                Adam(model.parameters(), 0.01))

    def test_learns(self, ds):
        model = gcn(ds.feat_dim, 16, ds.num_classes, aggregator="mean")
        trainer = DistributedMiniBatchTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2),
            batch_size=32, fanouts=[5, 5], seed=0,
        )
        opt = Adam(model.parameters(), 0.01)
        feats = Tensor(ds.features)
        losses = [
            trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, e).loss
            for e in range(5)
        ]
        assert losses[-1] < losses[0]

    def test_feats_argument_and_dataset_run_the_same_epoch(self, ds):
        """``train_epoch(feats, labels, ...)`` and ``train_epoch()`` over
        the trainer's own dataset are one path (batch-local blocks over
        gathered rows): same seed, bitwise-equal losses, same traffic."""
        runs = []
        for from_dataset in (False, True):
            model = gcn(ds.feat_dim, 16, ds.num_classes, aggregator="mean",
                        seed=1)
            trainer = DistributedMiniBatchTrainer(
                model, ds if from_dataset else ds.graph,
                hash_partition(ds.graph.num_vertices, 2),
                batch_size=32, fanouts=[5, 5], seed=0,
            )
            opt = Adam(model.parameters(), 0.01)
            args = () if from_dataset else (Tensor(ds.features), ds.labels)
            runs.append([
                trainer.train_epoch(*args, optimizer=opt, mask=ds.train_mask,
                                    epoch=e)
                for e in range(3)
            ])
        for given, gathered in zip(*runs):
            assert given.loss == gathered.loss
            assert given.total_bytes == gathered.total_bytes
            assert given.total_messages == gathered.total_messages

    def test_pinsage_supported(self, ds):
        model = pinsage(ds.feat_dim, 8, ds.num_classes)
        trainer = DistributedMiniBatchTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2),
            batch_size=64, fanouts=[4, 4],
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        assert np.isfinite(stats.loss)

    def test_comm_accounting_nonzero_across_workers(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = DistributedMiniBatchTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 4),
            batch_size=32, fanouts=[4, 4],
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        assert stats.total_bytes > 0
        assert stats.total_messages > 0
        assert stats.simulated_seconds > 0

    def test_single_worker_has_no_traffic(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = DistributedMiniBatchTrainer(
            model, ds.graph, np.zeros(ds.graph.num_vertices, dtype=int),
            batch_size=64, fanouts=[4, 4],
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        assert stats.total_bytes == 0

    def test_rounds_cover_all_pools(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        k = 2
        labels = hash_partition(ds.graph.num_vertices, k)
        trainer = DistributedMiniBatchTrainer(
            model, ds.graph, labels, batch_size=16, fanouts=[3, 3]
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        biggest_pool = max(
            (ds.train_mask & (labels == w)).sum() for w in range(k)
        )
        assert stats.num_rounds == int(np.ceil(biggest_pool / 16))


class TestTypeProjection:
    def test_shapes_and_params(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 12)
        out = tp(Tensor(imdb.features))
        assert out.shape == (imdb.graph.num_vertices, 12)
        # 3 types x (weight + bias)
        assert len(tp.parameters()) == 6

    def test_each_type_uses_its_own_projection(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 4,
                            rng=np.random.default_rng(0))
        same_input = Tensor(np.tile(np.ones(imdb.feat_dim), (imdb.graph.num_vertices, 1)))
        out = tp(same_input).numpy()
        t0 = imdb.graph.vertices_of_type(0)[0]
        t1 = imdb.graph.vertices_of_type(1)[0]
        assert not np.allclose(out[t0], out[t1])
        # Within a type, identical inputs give identical outputs.
        t0b = imdb.graph.vertices_of_type(0)[1]
        np.testing.assert_allclose(out[t0], out[t0b])

    def test_gradients_reach_all_projections(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 4)
        out = tp(Tensor(imdb.features))
        out.sum().backward()
        for layer in tp.projections:
            assert layer.weight.grad is not None

    def test_row_count_mismatch_raises(self, imdb):
        tp = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 4)
        with pytest.raises(ValueError):
            tp(Tensor(np.ones((3, imdb.feat_dim))))

    def test_composes_with_magnn(self, imdb):
        """The real heterogeneous pipeline: project per type, then run
        the INHA model on the shared space."""
        from repro.tensor import cross_entropy

        proj = TypeProjection(imdb.graph.vertex_types, imdb.feat_dim, 16,
                              rng=np.random.default_rng(1))
        model = magnn(16, 16, imdb.num_classes)
        engine = FlexGraphEngine(model, imdb.graph)
        params = proj.parameters() + model.parameters()
        opt = Adam(params, 0.01)
        feats = Tensor(imdb.features)
        losses = []
        for epoch in range(4):
            hidden = proj(feats)
            logits = engine.forward(hidden, epoch)
            loss = cross_entropy(logits, imdb.labels, imdb.train_mask)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
