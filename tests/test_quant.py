"""Quantized feature/embedding tier: codecs, dequantize-on-gather parity
across every storage backend, and byte-budget accounting in the serve
caches."""

import hashlib
import os

import numpy as np
import pytest

from repro.loader import QuantizedSource, StreamingLoader, as_source
from repro.loader.source import InMemorySource
from repro.serve.cache import EmbeddingCache
from repro.storage import OnDiskDataset, write_ondisk_dataset
from repro.storage.ondisk import OnDiskIntegrityError
from repro.tensor import Adam
from repro.tensor.nn import Linear, as_param_dtype
from repro.tensor.quant import (
    FEATURE_DTYPES,
    QuantizedRows,
    dequantize_rows,
    int8_error_bound,
    quantize_rows,
    resolve_codec,
    storage_dtype,
    wire_bytes_per_row,
)


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import load_dataset

    return load_dataset("reddit", scale="tiny")


def _rows(n=50, dim=16, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, dim)) * rng.uniform(0.1, 10, (n, 1))
            ).astype(dtype)


# ---------------------------------------------------------------------------
# Codec round trips and bounds
# ---------------------------------------------------------------------------
class TestCodecs:
    def test_int8_round_trip_within_bound(self):
        rows = _rows()
        q = quantize_rows(rows, "int8")
        back = dequantize_rows(q, out_dtype=np.float64)
        bound = int8_error_bound(rows)[:, None]
        assert np.all(np.abs(back - rows) <= bound + 1e-12)

    def test_int8_bound_is_tight_scale_over_two(self):
        rows = _rows()
        np.testing.assert_allclose(
            int8_error_bound(rows), np.abs(rows).max(axis=1) / 254.0)

    def test_int8_zero_rows_round_trip_exactly(self):
        rows = np.zeros((3, 8))
        q = quantize_rows(rows, "int8")
        np.testing.assert_array_equal(q.scales, np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(dequantize_rows(q), np.zeros((3, 8)))

    def test_float16_round_trip_relative_bound(self):
        rows = _rows()
        q = quantize_rows(rows, "float16")
        back = dequantize_rows(q, out_dtype=np.float64)
        assert np.all(np.abs(back - rows) <= np.abs(rows) * 2.0 ** -10 + 1e-12)

    def test_float32_codec_is_identity(self):
        rows = _rows(dtype=np.float32)
        q = quantize_rows(rows, "float32")
        assert q.scales is None
        np.testing.assert_array_equal(
            dequantize_rows(q, out_dtype=np.float32), rows)

    def test_row_subset_decode(self):
        rows = _rows()
        q = quantize_rows(rows, "int8")
        sub = dequantize_rows(q, rows=np.array([3, 1, 3]))
        full = dequantize_rows(q)
        np.testing.assert_array_equal(sub, full[[3, 1, 3]])

    def test_wire_bytes_per_row(self):
        assert wire_bytes_per_row("float32", 16) == 64
        assert wire_bytes_per_row("float16", 16) == 32
        assert wire_bytes_per_row("int8", 16) == 20  # codes + fp32 scale

    def test_resolve_codec_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown feature codec"):
            resolve_codec("bf16")
        assert [resolve_codec(c) for c in FEATURE_DTYPES] == list(FEATURE_DTYPES)

    def test_container_validates_shapes(self):
        with pytest.raises(ValueError, match="scale sidecar"):
            QuantizedRows("int8", np.zeros((2, 4), dtype=np.int8))
        with pytest.raises(ValueError, match="does not match"):
            QuantizedRows("int8", np.zeros((2, 4), dtype=np.int8),
                          np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="no scale sidecar"):
            QuantizedRows("float16", np.zeros((2, 4), dtype=np.float16),
                          np.zeros(2, dtype=np.float32))


# ---------------------------------------------------------------------------
# Gather parity: in-RAM, on-disk, a worker's on-disk partition
# ---------------------------------------------------------------------------
class TestGatherParity:
    def test_quantized_source_parity(self):
        rows = _rows(80, 12)
        labels = np.arange(80) % 5
        src = QuantizedSource(rows, labels, codec="int8")
        idx = np.array([0, 7, 7, 79, 3])
        got = src.gather_features(idx)
        assert got.dtype == np.float32
        bound = int8_error_bound(rows)[idx][:, None]
        assert np.all(np.abs(got - rows[idx]) <= bound + 1e-6)
        np.testing.assert_array_equal(src.gather_labels(idx), labels[idx])
        assert src.wire_bytes_per_row == 16
        assert src.nbytes < rows.nbytes / 4

    def test_as_source_feature_dtype(self):
        """An fp16 store decodes its stored codes to float32, and
        ``as_source`` hands it on with the codec it was built with."""
        rows = _rows(10, 4)
        built = QuantizedSource(rows, np.zeros(10), codec="float16")
        assert as_source(built) is built
        relabeled = as_source(built, np.ones(10))
        assert relabeled.codec == "float16"
        idx = np.array([3, 0, 9, 3])
        got = relabeled.gather_features(idx)
        expected = quantize_rows(rows, "float16").codes[idx].astype(np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()
        # ... already in a float32 model's dtype: no second pass.
        assert as_param_dtype(Linear(4, 2), got) is got

    @pytest.mark.parametrize("codec", ["float16", "int8"])
    def test_ondisk_parity(self, dataset, tmp_path, codec):
        root = str(tmp_path / codec)
        write_ondisk_dataset(dataset, root, rows_per_shard=64,
                             quantize=codec)
        ds = OnDiskDataset(root)
        assert ds.codec == codec
        idx = np.array([0, 63, 64, 65, 199, 1])  # spans shard boundaries
        got = ds.gather_features(idx)
        exact = np.asarray(dataset.features)[idx]
        assert got.dtype == np.float32
        if codec == "int8":
            bound = int8_error_bound(exact)[:, None]
            assert np.all(np.abs(got - exact) <= bound + 1e-6)
        else:
            expected = quantize_rows(dataset.features, "float16").codes[idx]
            assert got.tobytes() == expected.astype(np.float32).tobytes()
        assert ds.wire_bytes_per_row == wire_bytes_per_row(
            codec, dataset.features.shape[1])

    def test_ondisk_manifest_codec_mismatch_is_loud(self, dataset, tmp_path):
        import json

        root = str(tmp_path / "broken")
        write_ondisk_dataset(dataset, root, rows_per_shard=64,
                             quantize="int8")
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["feature_codec"] = "float16"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(OnDiskIntegrityError):
            OnDiskDataset(root)

    def test_manifest_with_a_decode_dtype_still_opens(self, dataset, tmp_path):
        """Older writers recorded a ``compute_dtype`` in int8 manifests.
        It is ignored: the dataset opens and decodes to float32."""
        import json

        root = str(tmp_path / "old")
        write_ondisk_dataset(dataset, root, rows_per_shard=64,
                             quantize="int8")
        idx = np.array([0, 63, 64, 199])
        fresh = OnDiskDataset(root).gather_features(idx)
        manifest_path = os.path.join(root, "manifest.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["compute_dtype"] = "float64"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        got = OnDiskDataset(root).gather_features(idx)
        assert got.dtype == np.float32
        assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("codec", ["float16", "int8"])
    def test_partitioned_store_parity(self, dataset, tmp_path, codec):
        """A worker's partition gathered out of a quantized dataset."""
        from repro.core import Partition

        root = str(tmp_path / codec)
        write_ondisk_dataset(dataset, root, rows_per_shard=64, quantize=codec)
        ds = OnDiskDataset(root)
        n = dataset.graph.num_vertices
        owned = Partition(np.arange(n) % 2, n).parts[0]
        exact = np.asarray(dataset.features)[owned]
        got = ds.gather_features(owned)
        assert got.dtype == np.float32
        if codec == "int8":
            bound = int8_error_bound(exact)[:, None]
            assert np.all(np.abs(got - exact) <= bound + 1e-6)
        else:
            expected = quantize_rows(dataset.features, "float16").codes[owned]
            assert got.tobytes() == expected.astype(np.float32).tobytes()
        # Remote fetches move the stored codes, not the decoded rows.
        assert ds.feature_dtype == storage_dtype(codec)
        assert ds.wire_bytes_per_row == wire_bytes_per_row(codec, ds.feat_dim)

    def test_loader_wire_bytes_counter(self, dataset):
        from repro import obs
        from repro.core import FlexGraphEngine
        from repro.models import gcn

        obs.reset()
        model = gcn(dataset.feat_dim, 8, dataset.num_classes, seed=0)
        hdg = FlexGraphEngine(model, dataset.graph, seed=0).hdg_for_layer(0)
        source = QuantizedSource(dataset.features, dataset.labels, "int8")
        loader = StreamingLoader(source, [5, 5], batch_size=64,
                                 prefetch_depth=0)
        for _ in loader.epoch_batches(hdg, np.arange(128), epoch=0, seed=0):
            pass
        wire = obs.counter("loader.wire_bytes").total
        compute = obs.counter("loader.bytes_gathered").total
        assert 0 < wire < compute / 3


# ---------------------------------------------------------------------------
# A source answers for its own codec and wire bytes
# ---------------------------------------------------------------------------
def _store(kind, dataset, tmp_path):
    """A store of ``kind`` (``<tier>[-<codec>]``) over ``dataset``."""
    tier, _, codec = kind.partition("-")
    codec = codec or None
    if tier == "InMemory":
        return InMemorySource(dataset.features, dataset.labels)
    if tier == "Quantized":
        return QuantizedSource(dataset.features, dataset.labels, codec)
    root = str(tmp_path / kind)
    write_ondisk_dataset(dataset, root, rows_per_shard=64, quantize=codec)
    return OnDiskDataset(root)


class TestSourceReportsItsStore:
    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("kind", [
        "InMemory", "Quantized-int8", "Quantized-float16", "OnDisk",
        "OnDisk-int8",
    ])
    def test_every_source_reports_codec_and_wire_bytes(self, dataset,
                                                       tmp_path, kind,
                                                       relabel):
        store = _store(kind, dataset, tmp_path)
        source = as_source(store, dataset.labels) if relabel else store
        codec = kind.partition("-")[2] or None
        assert source.codec == codec
        dim = dataset.features.shape[1]
        itemsize = np.asarray(dataset.features).itemsize
        expected = (dim * itemsize if codec is None
                    else wire_bytes_per_row(codec, dim))
        assert source.wire_bytes_per_row == expected

    @pytest.mark.parametrize("kind", ["Quantized-int8", "OnDisk-int8"])
    def test_loader_wire_bytes_ignore_a_label_override(self, dataset,
                                                       tmp_path, kind):
        """Regression: a source with an explicit label array counted the
        decoded float32 bytes as wire bytes (3.8x over for int8)."""
        from repro import obs
        from repro.core.hdg import hdg_from_graph

        store = _store(kind, dataset, tmp_path)
        hdg = hdg_from_graph(dataset.graph)

        def wire_bytes(source):
            obs.reset()
            loader = StreamingLoader(source, [5, 5], batch_size=64,
                                     prefetch_depth=0)
            rows = sum(
                b.compact.input_vertices.size for b in
                loader.epoch_batches(hdg, np.arange(128), epoch=0, seed=0))
            return obs.counter("loader.wire_bytes").total, rows

        plain, rows = wire_bytes(store)
        assert plain == rows * store.wire_bytes_per_row
        assert wire_bytes(as_source(store, dataset.labels))[0] == plain


# ---------------------------------------------------------------------------
# Serve tier: quantized embedding cache and recursive block accounting
# ---------------------------------------------------------------------------
class TestQuantizedServeTier:
    def test_int8_cache_round_trip_within_bound(self):
        cache = EmbeddingCache(1 << 20, store_dtype="int8")
        rows = _rows(32, 8, dtype=np.float32)
        ids = np.arange(32)
        cache.store(0, ids, rows)
        hit_mask, hit_rows = cache.lookup(0, ids)
        assert hit_mask.all()
        got = np.stack(hit_rows)
        assert got.dtype == np.float32
        bound = int8_error_bound(rows)[:, None]
        assert np.all(np.abs(got - rows) <= bound + 1e-6)
        assert cache.stats()["store_dtype"] == "int8"

    def test_int8_cache_holds_more_entries_at_same_budget(self):
        dim = 32
        budget = 64 * dim * 4  # 64 fp32 rows
        exact = EmbeddingCache(budget)
        quant = EmbeddingCache(budget, store_dtype="int8")
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((256, dim)).astype(np.float32)
        for v in range(256):
            exact.store(0, np.array([v]), rows[v:v + 1])
            quant.store(0, np.array([v]), rows[v:v + 1])
        assert quant.stats()["entries"] > 3 * exact.stats()["entries"]
        assert quant.stats()["bytes"] <= budget
        assert exact.stats()["bytes"] <= budget
        hit_mask, hit_rows = quant.lookup(0, np.arange(256))
        kept = rows[hit_mask]
        assert np.all(np.abs(np.stack(hit_rows) - kept)
                      <= int8_error_bound(kept)[:, None] + 1e-6)

    def test_session_quantized_features_and_cache(self, dataset):
        from repro.models import gcn
        from repro.serve import InferenceSession

        model = gcn(dataset.feat_dim, 8, dataset.num_classes, seed=0)
        exact = InferenceSession(model, dataset.graph, dataset.features,
                                 seed=0)
        quant = InferenceSession(
            model, dataset.graph,
            QuantizedSource(dataset.features, codec="int8"), seed=0)
        seeds = np.arange(16)
        ref = exact.embed(seeds)
        got = quant.embed(seeds)
        rel = np.abs(got - ref).max() / (np.abs(ref).max() + 1e-12)
        assert rel < 0.05
        warm = quant.embed(seeds)
        stats = quant.stats()["embed_cache"]
        assert stats["store_dtype"] == "int8"
        assert stats["hits"] > 0
        rel_warm = np.abs(warm - got).max() / (np.abs(got).max() + 1e-12)
        assert rel_warm < 0.02
        # A warm hit is the cold row through the int8 codec, so it stays
        # inside the codec's per-row bound.
        assert np.all(np.abs(warm - got)
                      <= int8_error_bound(got)[:, None] + 1e-6)
        # An exact pin caches exactly: the cache's codec is the store's.
        assert exact.stats()["embed_cache"]["store_dtype"] == "exact"
        # Bit for bit what the former ``feature_dtype="int8",
        # cache_dtype="int8"`` options served and cached.
        digest = hashlib.sha256()
        for rows in (got, warm, quant.predict(seeds)):
            digest.update(np.ascontiguousarray(rows).tobytes())
        assert digest.hexdigest()[:16] == "d0b2fe77a808e29c"
        stats = quant.stats()["embed_cache"]
        assert {k: stats[k] for k in ("store_dtype", "entries", "bytes",
                                      "hits", "misses")} == {
            "store_dtype": "int8", "entries": 192, "bytes": 2304,
            "hits": 32, "misses": 192}


# ---------------------------------------------------------------------------
# End-to-end training parity
# ---------------------------------------------------------------------------
class TestTrainingParity:
    def test_minibatch_trainer_feature_dtype_losses_track(self, dataset):
        from repro.core.sampling import MiniBatchTrainer
        from repro.models import gcn

        losses = {}
        for codec in (None, "int8", "float16"):
            model = gcn(dataset.feat_dim, 8, dataset.num_classes, seed=0)
            trainer = MiniBatchTrainer(model, dataset, batch_size=64,
                                       fanouts=[5, 5], seed=0)
            source = (None if codec is None else
                      QuantizedSource(dataset.features, dataset.labels, codec))
            opt = Adam(model.parameters(), lr=0.01)
            losses[codec] = [
                trainer.train_epoch(source, optimizer=opt,
                                    mask=dataset.train_mask, epoch=epoch).loss
                for epoch in range(2)
            ]
        for exact, quant in zip(losses[None], losses["int8"]):
            # The codec was exercised (int8 rounding moves the loss) ...
            assert quant != exact
            # ... and its error stays inside the stated 1% bound.
            assert abs(quant - exact) <= 0.01 * max(abs(exact), 1.0)
        # Bit for bit the losses of the former
        # ``MiniBatchTrainer(feature_dtype=codec)``.
        assert [loss.hex() for loss in losses["int8"]] == [
            "0x1.86f71c0000000p+4", "0x1.e79a040000000p+2"]
        assert [loss.hex() for loss in losses["float16"]] == [
            "0x1.86e67c0000000p+4", "0x1.e94f810000000p+2"]
