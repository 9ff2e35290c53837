"""Tests for the staged streaming dataloader (``repro.loader``)."""

import gc
import mmap
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import sample_blocks
from repro.core.hdg import hdg_from_graph
from repro.core.sampling import MiniBatchTrainer
from repro.datasets import load_dataset
from repro.datasets.synthetic import ShardedSyntheticSpec
from repro.loader import (
    QuantizedSource,
    StreamingLoader,
    as_source,
    compact_blocks,
    plan_epoch,
)
from repro.loader.source import InMemorySource
from repro.models import gcn
from repro.storage import (
    OnDiskDataset,
    write_ondisk_dataset,
    write_synthetic_ondisk,
)
from repro.tensor import Tensor
from repro.tensor.optim import Adam


@pytest.fixture
def ds():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """One source of each kind over the same reddit tiny features."""
    data = load_dataset("reddit", scale="tiny")
    root = str(tmp_path_factory.mktemp("ondisk"))
    write_ondisk_dataset(data, root, rows_per_shard=64)
    return {
        "InMemory": as_source(data),
        "Quantized": QuantizedSource(data.features, data.labels, "int8"),
        "OnDisk": OnDiskDataset(root),
    }


@pytest.mark.parametrize("bad", [-1, "n"])
@pytest.mark.parametrize("what", ["features", "labels"])
@pytest.mark.parametrize("kind", ["InMemory", "Quantized", "OnDisk"])
def test_sources_reject_out_of_range_ids(sources, kind, what, bad):
    """An id outside [0, n) is named; numpy would wrap -1 to the last
    row."""
    source = sources[kind]
    bad = source.num_vertices if bad == "n" else bad
    gather = getattr(source, "gather_" + what)
    with pytest.raises(IndexError, match=f"vertex id {bad} "):
        gather(np.array([3, bad, 5]))


class TestPlanEpoch:
    def test_covers_pool_exactly_once(self):
        pool = np.arange(100)
        plans = plan_epoch(pool, 32, seed=1, epoch=0)
        assert len(plans) == 4  # ceil(100 / 32)
        seen = np.concatenate([p.seeds for p in plans])
        np.testing.assert_array_equal(np.sort(seen), pool)

    def test_deterministic_per_epoch(self):
        pool = np.arange(50)
        a = plan_epoch(pool, 16, seed=3, epoch=2)
        b = plan_epoch(pool, 16, seed=3, epoch=2)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.seeds, pb.seeds)
            assert pa.rng_seed == pb.rng_seed
        # ... but different across epochs and seeds
        c = plan_epoch(pool, 16, seed=3, epoch=3)
        assert any(
            not np.array_equal(pa.seeds, pc.seeds) for pa, pc in zip(a, c)
        )

    def test_empty_pool(self):
        assert plan_epoch(np.array([], dtype=np.int64), 8, seed=0, epoch=0) == []


class TestCompactBlocks:
    def test_local_ids_map_back(self, ds):
        from repro.core import build_seed_blocks

        hdg = hdg_from_graph(ds.graph)
        seeds = np.array([3, 11, 42])
        rng = np.random.default_rng(0)
        blocks = build_seed_blocks(hdg, seeds, [4, 4], rng)
        compact = compact_blocks(blocks, seeds)
        iv = compact.input_vertices
        assert np.array_equal(iv, np.unique(iv))  # sorted unique
        np.testing.assert_array_equal(iv[compact.seed_rows], seeds)
        for (local_block, out_local), (block, out) in zip(
            compact.blocks, blocks
        ):
            np.testing.assert_array_equal(iv[out_local], out)
            np.testing.assert_array_equal(
                iv[local_block.leaf_vertices], block.leaf_vertices
            )
            np.testing.assert_array_equal(
                local_block.leaf_offsets, block.leaf_offsets
            )


class TestStreamingLoader:
    def _loader(self, ds, **kw):
        src = InMemorySource(ds.features, ds.labels)
        return StreamingLoader(src, [4, 4], batch_size=32, **kw)

    def test_stream_identical_across_prefetch_depths(self, ds):
        hdg = hdg_from_graph(ds.graph)
        pool = np.flatnonzero(ds.train_mask)

        def collect(prefetch, workers):
            loader = self._loader(
                ds, prefetch_depth=prefetch, num_workers=workers
            )
            return list(loader.epoch_batches(hdg, pool, epoch=0, seed=9))

        sync = collect(0, 1)
        for prefetch, workers in [(1, 1), (2, 2), (4, 3)]:
            streamed = collect(prefetch, workers)
            assert len(streamed) == len(sync)
            for a, b in zip(sync, streamed):
                assert a.index == b.index
                np.testing.assert_array_equal(a.seeds, b.seeds)
                np.testing.assert_array_equal(
                    a.compact.input_vertices, b.compact.input_vertices
                )
                np.testing.assert_array_equal(a.feats.data, b.feats.data)
                np.testing.assert_array_equal(a.labels, b.labels)

    def test_clean_shutdown_leaves_no_threads(self, ds):
        hdg = hdg_from_graph(ds.graph)
        pool = np.flatnonzero(ds.train_mask)
        before = threading.active_count()
        loader = self._loader(ds, prefetch_depth=3, num_workers=2)

        # Never started: a generator that is dropped before its first
        # next() never runs its finally, so it must own no threads.
        it = loader.epoch_batches(hdg, pool, epoch=0, seed=0)
        del it
        gc.collect()
        assert threading.active_count() == before

        it = loader.epoch_batches(hdg, pool, epoch=0, seed=0)
        next(it)       # consume one batch ...
        it.close()     # ... then abandon the epoch
        assert threading.active_count() == before

        assert len(list(loader.epoch_batches(hdg, pool, epoch=0, seed=0))) > 1
        assert threading.active_count() == before

    def test_worker_exception_propagates(self, ds):
        class Exploding(InMemorySource):
            def gather_features(self, rows):
                raise RuntimeError("disk on fire")

        hdg = hdg_from_graph(ds.graph)
        pool = np.flatnonzero(ds.train_mask)
        loader = StreamingLoader(
            Exploding(ds.features, ds.labels), [4, 4], batch_size=32,
            prefetch_depth=2, num_workers=2,
        )
        with pytest.raises(RuntimeError, match="disk on fire"):
            list(loader.epoch_batches(hdg, pool, epoch=0, seed=0))

    def test_as_source_accepts_dataset(self, ds):
        src = as_source(ds)
        rows = np.array([1, 5, 9])
        np.testing.assert_array_equal(src.gather_features(rows), ds.features[rows])
        np.testing.assert_array_equal(src.gather_labels(rows), ds.labels[rows])


class TestTrainerParity:
    def _losses(self, data, ds, prefetch, workers, feats=None, labels=None,
                epochs=2):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        trainer = MiniBatchTrainer(
            model, data, batch_size=64, fanouts=[5, 5], seed=4,
            prefetch_depth=prefetch, num_workers=workers,
        )
        opt = Adam(model.parameters(), 0.01)
        stats = [
            trainer.train_epoch(feats, labels, opt, ds.train_mask, e)
            for e in range(epochs)
        ]
        return stats

    def test_streaming_losses_match_synchronous(self, ds):
        feats = Tensor(ds.features)
        sync = self._losses(ds.graph, ds, 0, 1, feats, ds.labels)
        for prefetch, workers in [(2, 2), (4, 3)]:
            streamed = self._losses(
                ds.graph, ds, prefetch, workers, feats, ds.labels
            )
            for a, b in zip(sync, streamed):
                assert a.loss == b.loss  # bitwise, not approx
                assert a.num_batches == b.num_batches
                assert a.train_accuracy == b.train_accuracy

    def test_ondisk_streaming_matches_in_ram(self, tmp_path, ds):
        root = str(tmp_path / "ondisk")
        write_ondisk_dataset(ds, root, rows_per_shard=64)
        od = OnDiskDataset(root)
        ram = self._losses(ds.graph, ds, 0, 1, Tensor(ds.features), ds.labels)
        ood = self._losses(od, ds, 2, 2)
        for a, b in zip(ram, ood):
            assert a.loss == b.loss

    def test_stage_stats_populated(self, ds):
        stats = self._losses(
            ds.graph, ds, 2, 2, Tensor(ds.features), ds.labels, epochs=1
        )[0]
        assert stats.prefetch_depth == 2
        assert stats.sample_seconds > 0
        assert stats.gather_seconds >= 0
        assert stats.train_seconds > 0
        assert 0.0 <= stats.overlap_efficiency <= 1.0

    def test_epoch_event_carries_counts(self, ds):
        """The minibatch epoch event carries the engine epoch event's
        counted fields next to its stage seconds."""
        obs.reset()
        self._losses(ds, ds, 0, 1, epochs=1)
        (event,) = [e.attrs for e in obs.get_registry().events
                    if e.name == "epoch"]
        assert event["flops"] > 0
        assert event["work_bytes"] > 0
        for key in ("plan_hits", "plan_misses", "memo_hits", "memo_builds"):
            assert event[key] >= 0
        assert "transfer_seconds" not in event

    def test_dataset_trainer_without_explicit_arrays(self, ds):
        stats = self._losses(ds, ds, 0, 1, epochs=1)[0]
        ref = self._losses(
            ds.graph, ds, 0, 1, Tensor(ds.features), ds.labels, epochs=1
        )[0]
        assert stats.loss == ref.loss

    def test_trainer_without_dataset_requires_feats(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        trainer = MiniBatchTrainer(model, ds.graph, fanouts=[5, 5])
        with pytest.raises(ValueError, match="feats"):
            trainer.train_epoch(
                optimizer=Adam(model.parameters(), 0.01), mask=ds.train_mask
            )


def _pages_touched(od: OnDiskDataset, rows: np.ndarray) -> int:
    """File pages of the feature shards that ``rows`` lie on."""
    row_bytes = od.feat_dim * od.feature_dtype.itemsize
    shard, local = np.divmod(np.unique(rows), od.rows_per_shard)
    pages = 0
    for s in np.unique(shard):
        path = os.path.join(od.root, f"features/shard-{int(s):05d}.npy")
        data0 = np.load(path, mmap_mode="r").offset
        begin = data0 + local[shard == s] * row_bytes
        first = begin // mmap.PAGESIZE
        last = (begin + row_bytes - 1) // mmap.PAGESIZE
        pages += np.unique(np.concatenate(
            [np.arange(a, b + 1) for a, b in zip(first, last)])).size
    return pages


class TestStreamedResidency:
    def test_gather_bytes_are_touched_rows_not_dataset(self, tmp_path,
                                                       monkeypatch):
        """Residency is O(touched rows): an epoch over a bounded seed
        window gathers exactly the rows its batches name — a small
        fraction of the feature shards, which are pread in page-coalesced
        windows and never materialized."""
        spec = ShardedSyntheticSpec(
            name="residency", num_vertices=20_000, num_edges=100_000,
            feat_dim=32, num_classes=4, seed=0,
            edges_per_chunk=50_000, rows_per_shard=2_048,
        )
        root = str(tmp_path / "synth")
        write_synthetic_ondisk(root, spec)
        od = OnDiskDataset(root)

        def materialized(self):
            raise AssertionError("streaming materialized the dataset")

        monkeypatch.setattr(OnDiskDataset, "materialize", materialized)

        mask = np.zeros(od.num_vertices, dtype=bool)
        mask[:128] = True
        fanouts, batch_size, seed = [3, 3], 32, 0
        model = gcn(od.feat_dim, 8, od.num_classes, seed=0)
        trainer = MiniBatchTrainer(
            model, od, batch_size=batch_size, fanouts=fanouts, seed=seed,
            prefetch_depth=2, num_workers=2,
        )
        gathered = obs.counter("loader.bytes_gathered")
        # feature.gather op bytes = bytes pread off the shards + rows out
        gather_op = obs.counter("profile.op.feature.gather.bytes")
        before, op_before = gathered.total, gather_op.total
        stats = trainer.train_epoch(
            optimizer=Adam(model.parameters(), 0.01), mask=mask, epoch=0
        )
        moved = gathered.total - before
        pread = gather_op.total - op_before - moved

        # The same batches, re-derived from (seed, epoch) alone.
        hdg = trainer.hdgs.block_source(0)
        plans = plan_epoch(np.flatnonzero(mask), batch_size, seed=seed, epoch=0)
        batch_inputs = [
            sample_blocks(
                hdg, plan.seeds, fanouts, np.random.default_rng(plan.rng_seed)
            ).input_vertices
            for plan in plans
        ]
        input_rows = sum(rows.size for rows in batch_inputs)
        assert stats.num_batches == len(plans) == 4
        row_bytes = od.feat_dim * od.feature_dtype.itemsize
        assert moved == input_rows * row_bytes
        # Shard reads are coalesced over windows whose gaps are at most a
        # page, never whole shards: at most 2x the pages the requested
        # rows touch (gather_features' stated bound).
        touched = sum(_pages_touched(od, rows) for rows in batch_inputs)
        assert moved <= pread <= 2 * touched * mmap.PAGESIZE
        # ... and under a tenth of the feature table the shards hold.
        assert 0 < moved * 10 < od.num_vertices * row_bytes
