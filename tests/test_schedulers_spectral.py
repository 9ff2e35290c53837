"""Tests for LR schedulers, early stopping (incl. engine integration)
and the spectral partitioner."""

import numpy as np
import pytest

from repro.core import FlexGraphEngine
from repro.datasets import load_dataset
from repro.graph import (
    community_graph,
    edge_cut,
    hash_partition,
    spectral_partition,
)
from repro.models import gcn
from repro.tensor import (
    Adam,
    CosineAnnealingLR,
    EarlyStopping,
    Parameter,
    Tensor,
)


def make_opt(lr=1.0):
    return Adam([Parameter(np.zeros(2))], lr=lr)


class TestCosineLR:
    def test_endpoints(self):
        sched = CosineAnnealingLR(make_opt(), total_epochs=10, min_lr=0.01)
        first = sched.step()
        assert first == pytest.approx(1.0)
        for _ in range(10):
            last = sched.step()
        assert last == pytest.approx(0.01, rel=1e-6)

    def test_monotone_decreasing(self):
        sched = CosineAnnealingLR(make_opt(), total_epochs=20)
        lrs = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            CosineAnnealingLR(make_opt(), 0)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        es = EarlyStopping(patience=2, mode="min")
        results = [es.update(v) for v in [1.0, 0.5, 0.6, 0.7]]
        assert results == [False, False, False, True]
        assert es.best == 0.5 and es.best_epoch == 1

    def test_max_mode(self):
        es = EarlyStopping(patience=1, mode="max")
        assert not es.update(0.5)
        assert not es.update(0.7)
        assert es.update(0.6)

    def test_min_delta(self):
        es = EarlyStopping(patience=1, mode="min", min_delta=0.1)
        es.update(1.0)
        assert es.update(0.95)  # not a real improvement

    def test_improvement_resets_counter(self):
        es = EarlyStopping(patience=2, mode="min")
        for v in [1.0, 1.1, 0.9, 1.0]:
            stop = es.update(v)
        assert not stop

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(mode="sideways")

    def test_engine_fit_early_stops(self):
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 16, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        history = engine.fit(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.05),
            num_epochs=100, mask=ds.train_mask,
            early_stopping=EarlyStopping(patience=3, mode="max"),
            val_mask=ds.val_mask,
        )
        assert len(history) < 100

    def test_engine_fit_with_scheduler(self):
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        engine = FlexGraphEngine(model, ds.graph)
        opt = Adam(model.parameters(), 0.01)
        engine.fit(Tensor(ds.features), ds.labels, opt, 4,
                   mask=ds.train_mask,
                   scheduler=CosineAnnealingLR(opt, total_epochs=2, min_lr=0.001))
        assert opt.lr == pytest.approx(0.001)


class TestSpectralPartition:
    def test_recovers_communities(self):
        g = community_graph(200, 4, 10, intra_prob=0.95, seed=0)
        labels = spectral_partition(g, 4, seed=0)
        assert labels.shape == (200,)
        assert np.unique(labels).size == 4
        # Spectral should align well with the planted communities.
        from repro.tasks import normalized_mutual_information

        assert normalized_mutual_information(labels, g.communities) > 0.7

    def test_cuts_fewer_edges_than_hash(self):
        g = community_graph(250, 4, 10, seed=1)
        assert edge_cut(g, spectral_partition(g, 4)) < edge_cut(
            g, hash_partition(250, 4)
        )

    def test_single_partition(self):
        g = community_graph(50, 2, 4, seed=0)
        np.testing.assert_array_equal(spectral_partition(g, 1), np.zeros(50))

    def test_invalid_k(self):
        g = community_graph(50, 2, 4, seed=0)
        with pytest.raises(ValueError):
            spectral_partition(g, 0)

    def test_usable_by_distributed_trainer(self):
        ds = load_dataset("reddit", scale="tiny")
        labels = spectral_partition(ds.graph, 2, seed=0)
        from repro.distributed import DistributedTrainer

        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = DistributedTrainer(model, ds.graph, labels)
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01),
            ds.train_mask,
        )
        assert np.isfinite(stats.loss)
