"""Tests for the real multi-process distributed runtime: KV store,
ProcessComm, loss/gradient parity with the simulated trainer, and
worker-crash recovery."""

import glob
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.datasets import load_dataset
from repro.distributed import (
    DistributedTrainer,
    FaultTolerantTrainer,
    KVStore,
    MultiprocessTrainer,
    SharedArray,
    WorkerFailure,
    dependency_stats,
    runtime,
)
from repro.distributed.comm import ProcessComm, allreduce_traffic, reduce_slabs
from repro.distributed.rank import GRAD_REDUCE, LAYER_SYNC, PARAM_REDUCE, Rank
from repro.graph import hash_partition
from repro.models import gat, gcn, gin, pinsage
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


def train_losses(trainer, ds, epochs, lr=0.01):
    feats = Tensor(ds.features)
    opt = Adam(trainer.model.parameters(), lr)
    return [
        trainer.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=e).loss
        for e in range(epochs)
    ]


class TestSharedArray:
    def test_roundtrip_and_zero_copy(self):
        arr = SharedArray((3, 4), np.float64)
        try:
            arr.array[...] = np.arange(12).reshape(3, 4)
            view = arr.array
            view[0, 0] = 99.0
            assert arr.array[0, 0] == 99.0
        finally:
            arr.close()

    def test_descriptor_pickle_reattaches(self):
        import pickle

        arr = SharedArray((5,), np.float32)
        try:
            arr.array[...] = np.arange(5, dtype=np.float32)
            clone = pickle.loads(pickle.dumps(arr))
            np.testing.assert_array_equal(clone.array, arr.array)
            clone.close()  # non-owner: detach only
            assert arr.array[2] == 2.0
        finally:
            arr.close()


class TestKVStore:
    def test_set_get_pull_batch(self):
        kv = KVStore()
        try:
            kv.set("a", np.ones((2, 3)))
            kv.set("b", np.zeros(4, dtype=np.float32))
            np.testing.assert_array_equal(kv.get("a"), np.ones((2, 3)))
            batch = kv.pull_batch(["a", "b"])
            assert set(batch) == {"a", "b"}
            assert batch["b"].dtype == np.float32
            assert kv.keys() == ["a", "b"]
            assert "a" in kv and "zzz" not in kv
            assert kv.nbytes("a") == 2 * 3 * 8
        finally:
            kv.close()

    def test_overwrite_requires_matching_shape(self):
        kv = KVStore()
        try:
            kv.set("w", np.ones(4))
            kv.set("w", np.full(4, 2.0))
            np.testing.assert_array_equal(kv.get("w"), np.full(4, 2.0))
            with pytest.raises(ValueError):
                kv.set("w", np.ones(5))
            with pytest.raises(ValueError):
                kv.set("w", np.ones(4, dtype=np.float32))
        finally:
            kv.close()

    def test_missing_key_raises(self):
        kv = KVStore()
        try:
            with pytest.raises(KeyError):
                kv.get("nope")
        finally:
            kv.close()

    def test_pulled_bytes_accounting(self):
        kv = KVStore()
        try:
            kv.set("x", np.ones((10, 4)))
            kv.get("x")
            assert kv.pulled_bytes == 10 * 4 * 8
        finally:
            kv.close()


class TestProcessComm:
    def test_allreduce_traffic(self):
        nbytes, messages = allreduce_traffic(1000.0, 4)
        assert messages == 2 * 3
        assert nbytes == pytest.approx(6 * 250.0)
        assert allreduce_traffic(1000.0, 1) == (0.0, 0)

    def test_reduce_slabs_is_exact_sum(self):
        rng = np.random.default_rng(0)
        slabs = [rng.standard_normal((7, 5)) for _ in range(3)]
        out = np.zeros((7, 5))
        for rank in range(3):  # every rank reduces its own chunk
            reduce_slabs(slabs, out, rank)
        expected = slabs[0] + slabs[1] + slabs[2]
        # Same fixed rank-order summation both ways: bitwise equal.
        np.testing.assert_array_equal(out, expected)

    def test_single_party_barrier_returns(self):
        comm = ProcessComm(1)
        try:
            assert comm.barrier() >= 0.0
        finally:
            comm.close()


class TestMultiprocessParity:
    """The tentpole acceptance: k real processes run the simulated
    trainer's rank programs, so the numerics are *equal* (same seeds,
    same partitions, same code)."""

    @staticmethod
    def _both(ds, factory, k, feats):
        """Per-epoch losses and the model of each backend, epoch ``e``
        training on ``feats[e]``."""
        part = hash_partition(ds.graph.num_vertices, k)
        out = []
        for cls in (DistributedTrainer, MultiprocessTrainer):
            model = factory(ds.feat_dim, 8, ds.num_classes, seed=7)
            trainer = cls(model, ds.graph, part, seed=0)
            opt = Adam(model.parameters(), 0.01)
            try:
                losses = [
                    trainer.train_epoch(f, ds.labels, opt, ds.train_mask,
                                        epoch=e).loss
                    for e, f in enumerate(feats)
                ]
            finally:
                if cls is MultiprocessTrainer:
                    trainer.close()
            out.append((losses, model))
        return out

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_loss_trajectory_matches_simulated(self, ds, k):
        (ref, _), (mp, _) = self._both(ds, gcn, k, [Tensor(ds.features)] * 5)
        assert mp == ref

    @pytest.mark.parametrize("factory", [gat, gin, pinsage],
                             ids=["gat", "gin", "pinsage"])
    def test_loss_trajectory_equal_for_every_aggregation_kind(self, ds,
                                                              factory):
        """``gat``: attention, non-commutative, a batched plan; ``gin``:
        a declared linear Update with an MLP tail; ``pinsage``: PER_EPOCH
        selection, so a fresh sub-HDG ships every epoch."""
        (ref, _), (mp, _) = self._both(ds, factory, 2,
                                       [Tensor(ds.features)] * 5)
        assert mp == ref

    def test_gradients_match_simulated(self, ds):
        (_, ref), (_, mp) = self._both(ds, gcn, 2, [Tensor(ds.features)] * 2)
        for p_ref, p_mp in zip(ref.parameters(), mp.parameters()):
            np.testing.assert_array_equal(p_mp.grad, p_ref.grad)
            np.testing.assert_array_equal(p_mp.data, p_ref.data)

    def test_changed_features_are_shipped(self, ds):
        """Regression: the process trainer fetched the features once and
        trained on them forever, ignoring a different ``feats``."""
        base = Tensor(ds.features)
        scaled = Tensor(ds.features * 3.0)
        (ref, _), (mp, _) = self._both(ds, gcn, 2, [base, scaled, base])
        assert mp == ref
        assert ref[1] != ref[0]

    def test_optimizer_changes_reach_every_replica(self, ds):
        """Each worker steps its own optimizer replica.  A different
        optimizer object respawns the replicas from the parent's, and an
        in-place learning-rate change (a scheduler's) reaches them every
        epoch, so both backends train one trajectory."""
        part = hash_partition(ds.graph.num_vertices, 2)
        feats = Tensor(ds.features)
        runs = []
        for cls in (DistributedTrainer, MultiprocessTrainer):
            model = gcn(ds.feat_dim, 8, ds.num_classes, seed=7)
            trainer = cls(model, ds.graph, part, seed=0)
            first = Adam(model.parameters(), 0.01)
            second = Adam(model.parameters(), 0.05)
            losses = []
            try:
                for epoch, opt in enumerate([first, first, second, first]):
                    if epoch == 3:
                        first.lr = 0.002
                    losses.append(trainer.train_epoch(
                        feats, ds.labels, opt, ds.train_mask, epoch=epoch).loss)
            finally:
                if cls is MultiprocessTrainer:
                    trainer.close()
            runs.append((losses, [p.data for p in model.parameters()]))
        (ref, ref_params), (mp, mp_params) = runs
        assert mp == ref
        for a, b in zip(ref_params, mp_params):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cls", [DistributedTrainer, MultiprocessTrainer])
    @pytest.mark.parametrize("name", ["labels", "mask"])
    def test_targets_need_one_entry_per_vertex(self, ds, cls, name):
        """Per-rank slicing would silently accept a too-long array: it is
        a named error, before any rank runs."""
        targets = {"labels": ds.labels, "mask": ds.train_mask}
        targets[name] = np.append(targets[name], targets[name][:1])
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        trainer = cls(model, ds.graph,
                      hash_partition(ds.graph.num_vertices, 2), seed=0)
        try:
            with pytest.raises(ValueError, match=name):
                trainer.train_epoch(Tensor(ds.features), targets["labels"],
                                    Adam(model.parameters(), 0.01),
                                    targets["mask"])
            assert all(rank.compute_seconds == [] for rank in trainer.ranks)
            assert multiprocessing.active_children() == []
        finally:
            if cls is MultiprocessTrainer:
                trainer.close()

    def test_epoch_bytes_are_the_counted_traffic(self, ds):
        """One epoch's bytes: every rank's layer inputs read from remote
        owners (``dependency_stats``), its hidden-gradient and parameter
        reductions (``allreduce_traffic``), and the remote feature shards
        of the first fetch."""
        k = 2
        part = hash_partition(ds.graph.num_vertices, k)
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        mt = MultiprocessTrainer(model, ds.graph, part, seed=0)
        try:
            opt = Adam(model.parameters(), 0.01)
            stats = [mt.train_epoch(Tensor(ds.features), ds.labels, opt,
                                    ds.train_mask, epoch=e) for e in range(2)]
            hdg = mt.hdgs.model_hdg
        finally:
            mt.close()
        itemsize = np.dtype(np.float64).itemsize     # boundaries and slabs
        hidden_row = 8 * itemsize
        remote = dependency_stats(hdg, part, k).remote_leaves_per_pair
        rows_read = float(remote.sum()) * (
            ds.feat_dim * ds.features.itemsize + hidden_row)
        params = sum(p.data.size for p in model.parameters()) * itemsize
        per_epoch = rows_read + k * (
            allreduce_traffic(ds.graph.num_vertices * hidden_row, k)[0]
            + allreduce_traffic(params, k)[0])
        shards = sum(ds.features[part == w].nbytes * (k - 1)
                     for w in range(k))
        assert stats[1].total_bytes == per_epoch
        assert stats[0].total_bytes == per_epoch + shards

    def test_epoch_stats_and_span_merge(self, ds):
        obs.reset()
        part = hash_partition(ds.graph.num_vertices, 2)
        mt = MultiprocessTrainer(
            gcn(ds.feat_dim, 8, ds.num_classes, seed=0), ds.graph, part, seed=0
        )
        try:
            feats = Tensor(ds.features)
            opt = Adam(mt.model.parameters(), 0.01)
            stats = mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=0)
        finally:
            mt.close()
        assert stats.backend == "process"
        assert stats.wall_seconds > 0
        assert stats.compute_seconds.shape == (2,)
        assert (stats.compute_seconds > 0).all()
        assert stats.total_bytes > 0
        # Worker-process spans were merged into the parent registry.
        reg = obs.get_registry()
        workers_seen = {
            s.get("worker") for s in reg.spans if s.name == "dist.compute"
        }
        assert workers_seen == {0, 1}
        assert any(s.name == "dist.comm" and not s.simulated for s in reg.spans)


def worker_threads(reg):
    """Each rank's reported BLAS thread count, in report order."""
    return [(e.get("worker"), e.get("blas_threads"))
            for e in reg.events if e.name == "dist.worker_threads"]


def parent_blas_threads():
    blas = runtime._loaded_blas()
    if blas is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    return blas[2]()


class TestThreadBudget:
    """Each worker process sizes its own BLAS pool to its share of the
    cores; the parent's pool is never touched."""

    @staticmethod
    def budget(k):
        return max(1, len(os.sched_getaffinity(0)) // k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_each_rank_reports_its_budget(self, ds, k):
        parent_blas_threads()
        obs.reset()
        part = hash_partition(ds.graph.num_vertices, k)
        with MultiprocessTrainer(gcn(ds.feat_dim, 8, ds.num_classes, seed=0),
                                 ds.graph, part, seed=0) as mt:
            train_losses(mt, ds, 2)
        # Once per process, not once per epoch.
        assert sorted(worker_threads(obs.get_registry())) == [
            (r, self.budget(k)) for r in range(k)]

    def test_parent_pool_is_untouched(self, ds):
        before = parent_blas_threads()
        part = hash_partition(ds.graph.num_vertices, 2)
        with MultiprocessTrainer(gcn(ds.feat_dim, 8, ds.num_classes, seed=0),
                                 ds.graph, part, seed=0) as mt:
            train_losses(mt, ds, 1)
        assert parent_blas_threads() == before

    def test_respawned_workers_report_again(self, ds):
        parent_blas_threads()
        part = hash_partition(ds.graph.num_vertices, 2)
        with MultiprocessTrainer(gcn(ds.feat_dim, 8, ds.num_classes, seed=0),
                                 ds.graph, part, seed=0) as mt:
            train_losses(mt, ds, 1)
            mt.heal()
            obs.reset()
            train_losses(mt, ds, 1)
        assert sorted(worker_threads(obs.get_registry())) == [
            (0, self.budget(2)), (1, self.budget(2))]

    def test_spawn_pool_matches_fork_pool(self, ds):
        """The spawn start method re-imports numpy in each child, and the
        budget still applies; the losses are those of the fork pool."""
        parent_blas_threads()
        part = hash_partition(ds.graph.num_vertices, 2)
        losses = {}
        for method in ("fork", "spawn"):
            obs.reset()
            model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
            with MultiprocessTrainer(
                    model, ds.graph, part, seed=0,
                    ctx=multiprocessing.get_context(method)) as mt:
                losses[method] = train_losses(mt, ds, 2)
            assert sorted(worker_threads(obs.get_registry())) == [
                (0, self.budget(2)), (1, self.budget(2))]
        assert losses["spawn"] == losses["fork"]


class TestTeardown:
    def test_close_leaves_no_threads(self, ds):
        # Regression: each inbox's queue feeder thread outlived close()
        # and died only when the trainer was garbage-collected.
        before = threading.active_count()
        part = hash_partition(ds.graph.num_vertices, 2)
        mt = MultiprocessTrainer(
            gcn(ds.feat_dim, 8, ds.num_classes, seed=1), ds.graph, part, seed=0
        )
        try:
            train_losses(mt, ds, 1)
            assert threading.active_count() > before   # feeders are running
        finally:
            mt.close()
        # Immediately, with the trainer still referenced and no gc pass.
        assert threading.active_count() == before


class TestWorkerCrash:
    def test_real_crash_surfaces_worker_failure(self, ds):
        part = hash_partition(ds.graph.num_vertices, 2)
        mt = MultiprocessTrainer(
            gcn(ds.feat_dim, 8, ds.num_classes, seed=1), ds.graph, part, seed=0
        )
        try:
            feats = Tensor(ds.features)
            opt = Adam(mt.model.parameters(), 0.01)
            mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=0)
            mt.inject_failure(1)
            with pytest.raises(WorkerFailure) as exc:
                mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=1)
            assert exc.value.worker_id == 1
            # heal(): respawn the pool and keep training.
            mt.heal()
            stats = mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=1)
            assert np.isfinite(stats.loss)
        finally:
            mt.close()

    @pytest.mark.parametrize("sync", [LAYER_SYNC, GRAD_REDUCE, PARAM_REDUCE])
    def test_worker_killed_at_each_sync_point(self, ds, monkeypatch, sync):
        """Rank 1 dies where it meets its peers: a named WorkerFailure
        (not a barrier timeout), nothing leaked after close, and after
        heal() the re-run epoch is the failure-free run's."""
        program = Rank.program

        def dies_at_sync(self, *args, **kwargs):
            epoch = args[4]
            for point in program(self, *args, **kwargs):
                if self.rank == 1 and epoch == 1 and point.name == sync:
                    os._exit(1)
                yield point

        part = hash_partition(ds.graph.num_vertices, 2)
        threads = threading.active_count()
        segments = set(glob.glob("/dev/shm/repro_*"))
        monkeypatch.setattr(Rank, "program", dies_at_sync)  # before the fork
        mt = MultiprocessTrainer(gcn(ds.feat_dim, 8, ds.num_classes, seed=3),
                                 ds.graph, part, seed=0)
        feats = Tensor(ds.features)
        opt = Adam(mt.model.parameters(), 0.01)
        try:
            losses = [mt.train_epoch(feats, ds.labels, opt, ds.train_mask,
                                     epoch=0).loss]
            with pytest.raises(WorkerFailure) as exc:
                mt.train_epoch(feats, ds.labels, opt, ds.train_mask, epoch=1)
            assert exc.value.worker_id == 1
            monkeypatch.undo()
            mt.heal()
            losses.append(mt.train_epoch(feats, ds.labels, opt, ds.train_mask,
                                         epoch=1).loss)
        finally:
            mt.close()
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert set(glob.glob("/dev/shm/repro_*")) - segments == set()
        ref = DistributedTrainer(gcn(ds.feat_dim, 8, ds.num_classes, seed=3),
                                 ds.graph, part, seed=0)
        assert losses == train_losses(ref, ds, 2)

    def test_fault_tolerant_trainer_recovers_real_crash(self, ds, tmp_path):
        part = hash_partition(ds.graph.num_vertices, 2)
        mt = MultiprocessTrainer(
            gcn(ds.feat_dim, 8, ds.num_classes, seed=2), ds.graph, part, seed=0
        )
        try:
            ft = FaultTolerantTrainer(mt, str(tmp_path / "mp"), interval=1)
            hist = ft.train(
                Tensor(ds.features), ds.labels,
                Adam(mt.model.parameters(), 0.01), 4, ds.train_mask,
                failure_schedule={2: 0},
            )
        finally:
            mt.close()
        assert len(hist) == 4
        assert len(ft.recoveries) == 1
        assert ft.recoveries[0].worker_id == 0
        assert ft.recoveries[0].restored_from_epoch == 1
        # Every replica restarts from the one snapshot: the replayed
        # epochs are the failure-free run's.
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=2)
        ref = DistributedTrainer(model, ds.graph, part, seed=0)
        assert [s.loss for s in hist] == train_losses(ref, ds, 4)
