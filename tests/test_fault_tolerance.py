"""Tests for fault tolerance: checkpoint manager, worker failure
injection, and recovery semantics."""

import os

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.distributed import (
    CheckpointManager,
    DistributedTrainer,
    FaultTolerantTrainer,
    RecoveryEvent,
)
from repro.graph import hash_partition
from repro.models import gcn
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


def make_trainer(ds, seed=0, k=2):
    model = gcn(ds.feat_dim, 8, ds.num_classes, seed=seed)
    return model, DistributedTrainer(
        model, ds.graph, hash_partition(ds.graph.num_vertices, k)
    )


class TestCheckpointManager:
    def test_interval(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=2, keep=5)
        assert not mgr.maybe_save(0, {"w": np.ones(2)})
        assert mgr.maybe_save(1, {"w": np.ones(2)})
        assert mgr.latest_epoch == 1

    def test_retention(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=1, keep=2)
        for epoch in range(5):
            mgr.maybe_save(epoch, {"w": np.full(2, float(epoch))})
        files = [f for f in os.listdir(tmp_path) if f.startswith("ckpt_")]
        assert len(files) == 2
        state, meta = mgr.load_latest()
        assert meta["epoch"] == 4
        np.testing.assert_array_equal(state["w"], [4.0, 4.0])

    def test_load_latest_empty(self, tmp_path):
        assert CheckpointManager(str(tmp_path)).load_latest() is None

    def test_interleaved_saves_prune_in_order(self, tmp_path):
        """keep-pruning and latest_epoch stay consistent when saves land
        only on interval epochs across a long run."""
        mgr = CheckpointManager(str(tmp_path), interval=3, keep=2)
        saved = []
        for epoch in range(10):
            if mgr.maybe_save(epoch, {"w": np.full(2, float(epoch))}):
                saved.append(epoch)
                assert mgr.latest_epoch == epoch
                state, meta = mgr.load_latest()
                assert meta["epoch"] == epoch
                np.testing.assert_array_equal(state["w"], [epoch, epoch])
        assert saved == [2, 5, 8]
        files = sorted(f for f in os.listdir(tmp_path) if f.startswith("ckpt_"))
        # Only the newest `keep` snapshots survive, oldest pruned first.
        assert len(files) == 2
        assert all(f"{epoch:06d}" in name
                   for epoch, name in zip([5, 8], files))

    def test_latest_survives_manager_restart(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=1, keep=3)
        for epoch in range(4):
            mgr.maybe_save(epoch, {"w": np.full(2, float(epoch))})
        # A new manager over the same directory resumes from disk state.
        fresh = CheckpointManager(str(tmp_path), interval=1, keep=3)
        state, meta = fresh.load_latest()
        assert meta["epoch"] == 3
        np.testing.assert_array_equal(state["w"], [3.0, 3.0])

    def test_invalid_params(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), interval=0)

    def test_replay_resave_does_not_duplicate_epochs(self, tmp_path):
        """Recovery replays epochs already checkpointed; re-saving the
        same epoch must overwrite in place, not grow the retention list
        (a duplicated entry used to make pruning delete a live epoch)."""
        mgr = CheckpointManager(str(tmp_path), interval=1, keep=2)
        for epoch in range(3):
            mgr.maybe_save(epoch, {"w": np.full(2, float(epoch))})
        # Replay epochs 1-2 after a simulated recovery, then advance.
        for epoch in (1, 2, 2, 3):
            mgr.maybe_save(epoch, {"w": np.full(2, float(epoch) + 10.0)})
        files = sorted(f for f in os.listdir(tmp_path) if f.startswith("ckpt_"))
        assert len(files) == 2
        assert all(f"{epoch:06d}" in name
                   for epoch, name in zip([2, 3], files))
        state, meta = mgr.load_latest()
        assert meta["epoch"] == 3
        np.testing.assert_array_equal(state["w"], [13.0, 13.0])


class TestOptimizerStateDicts:
    def test_adam_roundtrip(self):
        from repro.tensor import Parameter

        w = Parameter(np.ones(3))
        opt = Adam([w], lr=0.1)
        for _ in range(3):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        snap = opt.state_dict()
        w2 = Parameter(w.data.copy())
        opt2 = Adam([w2], lr=0.1)
        opt2.load_state_dict(snap)
        # Both must take identical next steps.
        for o, p in ((opt, w), (opt2, w2)):
            loss = (p * p).sum()
            o.zero_grad()
            loss.backward()
            o.step()
        np.testing.assert_allclose(w.data, w2.data)

    def test_sgd_momentum_roundtrip(self):
        from repro.tensor import Parameter

        # Adam's first moment is its momentum buffer.
        w = Parameter(np.ones(2))
        opt = Adam([w], lr=0.1)
        loss = (w * w).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        snap = opt.state_dict()
        assert np.any(snap["m0"] != 0)
        fresh = Adam([Parameter(w.data.copy())], lr=0.1)
        fresh.load_state_dict(snap)
        np.testing.assert_array_equal(fresh.state_dict()["m0"], snap["m0"])


class TestFaultTolerantTraining:
    def test_failure_free_run_matches_plain(self, ds, tmp_path):
        model_a, trainer_a = make_trainer(ds, seed=5)
        opt_a = Adam(model_a.parameters(), 0.01)
        ft = FaultTolerantTrainer(trainer_a, str(tmp_path / "a"))
        hist_a = ft.train(Tensor(ds.features), ds.labels, opt_a, 4, ds.train_mask)

        model_b, trainer_b = make_trainer(ds, seed=5)
        opt_b = Adam(model_b.parameters(), 0.01)
        hist_b = [
            trainer_b.train_epoch(Tensor(ds.features), ds.labels, opt_b,
                                  ds.train_mask, e)
            for e in range(4)
        ]
        np.testing.assert_allclose(
            [h.loss for h in hist_a], [h.loss for h in hist_b], rtol=1e-10
        )
        assert not ft.recoveries

    def test_recovery_replays_and_converges(self, ds, tmp_path):
        model, trainer = make_trainer(ds, seed=1)
        opt = Adam(model.parameters(), 0.01)
        ft = FaultTolerantTrainer(trainer, str(tmp_path / "r"))
        hist = ft.train(Tensor(ds.features), ds.labels, opt, 6,
                        ds.train_mask, failure_schedule={3: 0})
        assert len(hist) == 6
        assert len(ft.recoveries) == 1
        event = ft.recoveries[0]
        assert isinstance(event, RecoveryEvent)
        assert event.worker_id == 0
        assert hist[-1].loss < hist[0].loss

    def test_recovery_losses_identical_to_uninterrupted(self, ds, tmp_path):
        """With deterministic selection (GCN), checkpoint/replay makes the
        final history identical to the failure-free run."""
        feats = Tensor(ds.features)
        model_a, trainer_a = make_trainer(ds, seed=9)
        ft = FaultTolerantTrainer(trainer_a, str(tmp_path / "x"), interval=1)
        hist_fail = ft.train(feats, ds.labels, Adam(model_a.parameters(), 0.01),
                             5, ds.train_mask, failure_schedule={2: 1})

        model_b, trainer_b = make_trainer(ds, seed=9)
        opt_b = Adam(model_b.parameters(), 0.01)
        hist_ok = [
            trainer_b.train_epoch(feats, ds.labels, opt_b, ds.train_mask, e)
            for e in range(5)
        ]
        np.testing.assert_allclose(
            [h.loss for h in hist_fail], [h.loss for h in hist_ok], rtol=1e-10
        )

    def test_failure_before_any_checkpoint(self, ds, tmp_path):
        model, trainer = make_trainer(ds, seed=2)
        opt = Adam(model.parameters(), 0.01)
        ft = FaultTolerantTrainer(trainer, str(tmp_path / "early"))
        hist = ft.train(Tensor(ds.features), ds.labels, opt, 3,
                        ds.train_mask, failure_schedule={0: 1})
        assert len(hist) == 3
        assert ft.recoveries[0].restored_from_epoch == -1

    def test_no_checkpoint_recovery_matches_clean_run(self, ds, tmp_path):
        """A failure before the first checkpoint restarts training from
        the *initial* model and optimizer state — epochs trained before
        the failure must not leak through (they used to, because the
        recovery path only cleared gradients)."""
        feats = Tensor(ds.features)
        model_a, trainer_a = make_trainer(ds, seed=4)
        ft = FaultTolerantTrainer(trainer_a, str(tmp_path / "clean"),
                                  interval=5)
        hist_fail = ft.train(feats, ds.labels,
                             Adam(model_a.parameters(), 0.01), 4,
                             ds.train_mask, failure_schedule={2: 1})
        assert len(hist_fail) == 4
        assert ft.recoveries[0].restored_from_epoch == -1

        model_b, trainer_b = make_trainer(ds, seed=4)
        opt_b = Adam(model_b.parameters(), 0.01)
        hist_ok = [
            trainer_b.train_epoch(feats, ds.labels, opt_b, ds.train_mask, e)
            for e in range(4)
        ]
        np.testing.assert_allclose(
            [h.loss for h in hist_fail], [h.loss for h in hist_ok], rtol=1e-10
        )

    def test_multiple_failures(self, ds, tmp_path):
        model, trainer = make_trainer(ds, seed=3)
        opt = Adam(model.parameters(), 0.01)
        ft = FaultTolerantTrainer(trainer, str(tmp_path / "multi"))
        hist = ft.train(Tensor(ds.features), ds.labels, opt, 6,
                        ds.train_mask, failure_schedule={2: 0, 4: 1})
        assert len(hist) == 6
        assert len(ft.recoveries) == 2
