"""Tests for the storage tier: datasets in the one ``repro.ondisk/1``
format, the per-worker partitions gathered out of it, and checkpoints."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core import Partition
from repro.datasets import Dataset, load_dataset
from repro.graph import Graph, hash_partition, heterogeneous_graph
from repro.models import gcn
from repro.storage import (
    OnDiskDataset,
    OnDiskIntegrityError,
    load_checkpoint,
    save_checkpoint,
    write_ondisk_dataset,
)
from repro.storage import store


@pytest.fixture
def ds():
    return load_dataset("reddit", scale="tiny")


def _roundtrip(dataset, root, **kwargs):
    write_ondisk_dataset(dataset, str(root), **kwargs)
    return OnDiskDataset(str(root))


def _graph_only(graph):
    """A bare graph as a dataset: one feature column, one class."""
    n = graph.num_vertices
    return Dataset(
        name="graph", graph=graph,
        features=np.arange(n, dtype=np.float32).reshape(n, 1),
        labels=np.zeros(n, dtype=np.int64),
        train_mask=np.ones(n, dtype=bool),
        val_mask=np.zeros(n, dtype=bool),
        test_mask=np.zeros(n, dtype=bool),
    )


class TestGraphRoundtrip:
    def test_simple_graph(self, tmp_path):
        g = Graph.from_edges(5, [[0, 1], [1, 2], [3, 4]], make_undirected=True)
        loaded = _roundtrip(_graph_only(g), tmp_path / "g").materialize().graph
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        assert loaded.fingerprint() == g.fingerprint()
        for v in range(5):
            np.testing.assert_array_equal(
                np.sort(loaded.out_neighbors(v)), np.sort(g.out_neighbors(v))
            )

    def test_typed_graph_preserves_types(self, tmp_path):
        g = heterogeneous_graph(20, 5, 10, seed=0)
        loaded = _roundtrip(_graph_only(g), tmp_path / "typed").materialize().graph
        np.testing.assert_array_equal(loaded.vertex_types, g.vertex_types)
        assert loaded.type_names == g.type_names

    def test_version_check(self, tmp_path):
        g = Graph.from_edges(2, [[0, 1]])
        root = tmp_path / "future"
        manifest = write_ondisk_dataset(_graph_only(g), str(root))
        manifest["format"] = "repro.ondisk/999"
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="'repro.ondisk/999' not supported"):
            OnDiskDataset(str(root))


class TestDatasetRoundtrip:
    def test_full_roundtrip(self, tmp_path, ds):
        loaded = _roundtrip(ds, tmp_path / "ds", rows_per_shard=64).materialize()
        assert loaded.name == ds.name
        assert loaded.graph.fingerprint() == ds.graph.fingerprint()
        assert loaded.features.dtype == ds.features.dtype
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        for split in ("train_mask", "val_mask", "test_mask"):
            np.testing.assert_array_equal(getattr(loaded, split),
                                          getattr(ds, split))
        np.testing.assert_array_equal(loaded.graph.vertex_types,
                                      ds.graph.vertex_types)
        assert loaded.graph.type_names == ds.graph.type_names

    def test_loaded_dataset_trains(self, tmp_path, ds):
        from repro.core import FlexGraphEngine
        from repro.tensor import Adam, Tensor

        loaded = _roundtrip(ds, tmp_path / "ds").materialize()
        model = gcn(loaded.feat_dim, 8, loaded.num_classes)
        engine = FlexGraphEngine(model, loaded.graph)
        stats = engine.train_epoch(
            Tensor(loaded.features), loaded.labels,
            Adam(model.parameters(), 0.01), loaded.train_mask,
        )
        assert np.isfinite(stats.loss)


class TestCheckpointRoundtrip:
    def test_state_and_metadata(self, tmp_path, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model.state_dict(), path, {"epoch": 7, "loss": 0.5})
        state, meta = load_checkpoint(path)
        assert meta["epoch"] == 7
        model2 = gcn(ds.feat_dim, 8, ds.num_classes, seed=2)
        model2.load_state_dict(state)
        np.testing.assert_allclose(
            model.layers[0].linear.weight.data, model2.layers[0].linear.weight.data
        )

    def test_empty_metadata(self, tmp_path):
        path = str(tmp_path / "c.npz")
        save_checkpoint({"w": np.ones(3)}, path)
        state, meta = load_checkpoint(path)
        assert meta == {}
        np.testing.assert_array_equal(state["w"], np.ones(3))

    def test_checkpoint_metadata_roundtrip(self, tmp_path, ds):
        from repro.storage import checkpoint_metadata

        model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
        meta = checkpoint_metadata(model, ds.graph, extra={"epoch": 3})
        assert meta["model_class"] == type(model).__name__
        assert meta["layer_dims"] == [8, ds.num_classes]
        assert meta["num_vertices"] == ds.graph.num_vertices
        assert meta["graph_fingerprint"] == ds.graph.fingerprint()
        path = str(tmp_path / "meta.npz")
        save_checkpoint(model.state_dict(), path, meta)
        _, loaded = load_checkpoint(path)
        assert loaded == meta
        assert loaded["epoch"] == 3

    def test_checkpoint_version_check(self, tmp_path):
        import json

        path = str(tmp_path / "future.npz")
        np.savez(path, format_version=np.int64(42),
                 metadata=np.array(json.dumps({}), dtype=object))
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)


class _OpensOnUnpickle:
    """Unpickling this object creates the file at ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestCheckpointSafety:
    """A checkpoint is read without unpickling, so a crafted file passed
    to ``serve --checkpoint`` cannot run code."""

    @pytest.mark.parametrize("entry", ["metadata", "param::w"])
    def test_crafted_object_array_is_refused_without_running(self, tmp_path,
                                                             entry):
        marker = tmp_path / "ran"
        payload = {"format_version": np.int64(store._FORMAT_VERSION),
                   "metadata": np.array(json.dumps({}))}
        payload[entry] = np.array([_OpensOnUnpickle(str(marker))], dtype=object)
        path = str(tmp_path / "crafted.npz")
        np.savez(path, **payload)
        with pytest.raises(ValueError):
            load_checkpoint(path)
        assert not marker.exists()

    def test_object_state_is_refused_by_name(self, tmp_path):
        with pytest.raises(ValueError, match="'layer.w'"):
            save_checkpoint({"layer.w": np.array([{"a": 1}], dtype=object)},
                            str(tmp_path / "c.npz"))

    def test_version_1_file_is_refused_by_version(self, tmp_path):
        path = str(tmp_path / "old.npz")
        np.savez(path, format_version=np.int64(1),
                 metadata=np.array(json.dumps({}), dtype=object))
        with pytest.raises(ValueError, match="format version 1 not supported"):
            load_checkpoint(path)


class TestPartitionedStore:
    """A worker's partition of the stored dataset is a row gather over
    the one on-disk format: ``gather_features(Partition.parts[w])``."""

    def _narrow_dataset(self, ds):
        return replace(
            ds,
            features=ds.features.astype(np.float32),
            labels=ds.labels.astype(np.int32),
        )

    def test_write_and_read_shards(self, tmp_path, ds):
        stored = _roundtrip(ds, tmp_path / "ds", rows_per_shard=64)
        part = Partition(hash_partition(ds.graph.num_vertices, 4),
                         ds.graph.num_vertices)
        assert part.k == 4
        total = 0
        for owned in part.parts:
            total += owned.size
            np.testing.assert_array_equal(stored.gather_features(owned),
                                          ds.features[owned])
            np.testing.assert_array_equal(stored.gather_labels(owned),
                                          ds.labels[owned])
            np.testing.assert_array_equal(stored.train_mask[owned],
                                          ds.train_mask[owned])
        assert total == ds.graph.num_vertices

    def test_manifest_roundtrips_fields(self, tmp_path, ds):
        manifest = write_ondisk_dataset(ds, str(tmp_path / "ds"),
                                        rows_per_shard=64)
        assert manifest["num_vertices"] == ds.graph.num_vertices
        # A second reader over the same directory sees the same manifest
        # and serves every worker's rows.
        reopened = OnDiskDataset(str(tmp_path / "ds"))
        assert reopened.manifest == manifest
        part = Partition(hash_partition(ds.graph.num_vertices, 3),
                         ds.graph.num_vertices)
        for owned in part.parts:
            np.testing.assert_array_equal(reopened.gather_labels(owned),
                                          ds.labels[owned])

    def test_missing_shard_raises(self, tmp_path, ds):
        root = tmp_path / "ds"
        write_ondisk_dataset(ds, str(root), rows_per_shard=64)
        os.remove(root / "features" / "shard-00001.npy")
        with pytest.raises(OnDiskIntegrityError, match="shard-00001"):
            OnDiskDataset(str(root))

    def test_bad_labels_shape_raises(self, ds):
        with pytest.raises(ValueError, match="cover every vertex"):
            Partition(np.zeros(3, dtype=int), ds.graph.num_vertices)

    def test_label_out_of_range_raises(self, ds):
        bad = np.zeros(ds.graph.num_vertices, dtype=int)
        bad[5] = -1
        with pytest.raises(ValueError, match="vertex 5 is negative"):
            Partition(bad, ds.graph.num_vertices)

    def test_shards_preserve_exact_dtypes(self, tmp_path, ds):
        narrow = self._narrow_dataset(ds)
        stored = _roundtrip(narrow, tmp_path / "ds", rows_per_shard=64)
        assert stored.manifest["feature_dtype"] == "float32"
        assert stored.manifest["label_dtype"] == "int32"
        for owned in Partition(hash_partition(narrow.graph.num_vertices, 3),
                               narrow.graph.num_vertices).parts:
            # Exact round-trip: no silent float64/int64 promotion.
            assert stored.gather_features(owned).dtype == np.float32
            assert stored.gather_labels(owned).dtype == np.int32

    def test_dtype_drift_raises(self, tmp_path, ds):
        narrow = self._narrow_dataset(ds)
        root = tmp_path / "ds"
        write_ondisk_dataset(narrow, str(root), rows_per_shard=64)
        shard = root / "features" / "shard-00001.npy"
        # Same itemsize, so the size check at open still passes.
        np.save(shard, np.load(shard).view(np.int32))
        stored = OnDiskDataset(str(root))
        np.testing.assert_array_equal(stored.gather_features(np.arange(64)),
                                      narrow.features[:64])
        with pytest.raises(OnDiskIntegrityError,
                           match="feature shard 1 header.*int32"):
            stored.gather_features(np.arange(64, 70))

    def test_shard_version_mismatch_raises(self, tmp_path, ds):
        root = tmp_path / "ds"
        write_ondisk_dataset(ds, str(root), rows_per_shard=64)
        shard = root / "features" / "shard-00000.npy"
        rows = np.load(shard)
        with open(shard, "wb") as f:
            np.lib.format.write_array(f, rows, version=(3, 0))
        stored = OnDiskDataset(str(root))   # same size: opens fine
        with pytest.raises(OnDiskIntegrityError,
                           match=r"feature shard 0 has unsupported .npy version \(3, 0\)"):
            stored.gather_features(np.arange(4))
        # the untouched shard still reads fine
        np.testing.assert_array_equal(stored.gather_features(np.arange(64, 70)),
                                      ds.features[64:70])
