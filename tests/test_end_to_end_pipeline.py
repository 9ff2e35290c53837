"""End-to-end pipeline integration: dataset -> on-disk storage ->
partition -> per-worker gather -> distributed training -> checkpoint ->
recovery -> evaluation.

One test per realistic operational flow, crossing every subsystem
boundary the architecture diagram (Figure 12) draws.
"""

import numpy as np
import pytest

from repro.core import ADBBalancer, FlexGraphEngine, Partition, metrics_from_hdg
from repro.datasets import load_dataset
from repro.distributed import DistributedTrainer, FaultTolerantTrainer
from repro.graph import hash_partition, pulp_partition
from repro.models import gcn, pinsage
from repro.storage import OnDiskDataset, write_ondisk_dataset
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestFullOperationalFlow:
    def test_store_partition_train_checkpoint_recover(self, ds, tmp_path):
        """The whole Figure 12 stack in one flow."""
        k = 2
        # 1. Storage tier: write the dataset; each worker reads its
        #    partition's rows out of the same files.
        write_ondisk_dataset(ds, str(tmp_path / "dataset"), rows_per_shard=64)
        stored = OnDiskDataset(str(tmp_path / "dataset"))
        loaded = stored.materialize()
        labels = pulp_partition(loaded.graph, k, num_iters=2)
        for owned in Partition(labels, loaded.graph.num_vertices).parts:
            np.testing.assert_array_equal(stored.gather_features(owned),
                                          ds.features[owned])

        # 2. Rebalance with ADB on the loaded data.
        model = gcn(loaded.feat_dim, 16, loaded.num_classes, seed=0)
        hdg = FlexGraphEngine(model, loaded.graph).hdg_for_layer(0)
        metrics = metrics_from_hdg(hdg, loaded.feat_dim)
        balancer = ADBBalancer(num_plans=3, threshold=1.05, seed=0)
        labels, _plan = balancer.rebalance(hdg, labels, k, metrics)

        # 3. Distributed training with fault tolerance + failure injection.
        trainer = DistributedTrainer(model, loaded.graph, labels, seed=0)
        ft = FaultTolerantTrainer(trainer, str(tmp_path / "ckpts"))
        feats = Tensor(loaded.features)
        optimizer = Adam(model.parameters(), 0.01)
        history = ft.train(feats, loaded.labels, optimizer, 5,
                           loaded.train_mask, failure_schedule={2: 1})
        assert len(history) == 5
        assert history[-1].loss < history[0].loss
        assert len(ft.recoveries) == 1

        # 4. Final evaluation on a fresh single-machine engine.
        acc = FlexGraphEngine(model, loaded.graph).evaluate(
            feats, loaded.labels, loaded.test_mask
        )
        assert acc > 0.5

    def test_shards_reconstruct_global_features(self, ds, tmp_path):
        """Worker gathers must partition the feature matrix exactly."""
        k = 4
        part = Partition(hash_partition(ds.graph.num_vertices, k),
                         ds.graph.num_vertices)
        write_ondisk_dataset(ds, str(tmp_path / "s"), rows_per_shard=64)
        stored = OnDiskDataset(str(tmp_path / "s"))
        rebuilt = np.zeros_like(ds.features)
        for owned in part.parts:
            rebuilt[owned] = stored.gather_features(owned)
        np.testing.assert_array_equal(rebuilt, ds.features)

    def test_per_epoch_model_distributed_with_recovery(self, ds, tmp_path):
        """PinSage (stochastic per-epoch selection) survives a failure;
        losses stay finite and training still descends overall."""
        model = pinsage(ds.feat_dim, 16, ds.num_classes, seed=1)
        trainer = DistributedTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2), seed=1
        )
        ft = FaultTolerantTrainer(trainer, str(tmp_path / "c"))
        feats = Tensor(ds.features)
        history = ft.train(feats, ds.labels, Adam(model.parameters(), 0.01),
                           6, ds.train_mask, failure_schedule={3: 0})
        assert len(history) == 6
        assert all(np.isfinite(h.loss) for h in history)
        assert history[-1].loss < history[0].loss
