"""Tests for the out-of-core dataset format (``repro.storage.ondisk``)
and the shard-by-shard synthetic generators."""

import dataclasses
import hashlib
import json
import os
import shutil
import sys

import numpy as np
import pytest

from repro.core import hierarchical_aggregate
from repro.core.aggregation import SumAggregator
from repro.core.hdg import hdg_from_graph
from repro.datasets import load_dataset
from repro.datasets.synthetic import (
    ShardedSyntheticSpec,
    edge_chunks,
    feature_shard,
    label_shard,
    mask_shards,
    reddit_like,
    shard_row_range,
)
from repro.graph import graph as graph_module
from repro.storage import (
    OnDiskDataset,
    OnDiskIntegrityError,
    write_ondisk_dataset,
    write_synthetic_ondisk,
)
from repro.storage.ondisk import ONDISK_FORMAT
from repro.tensor import Tensor

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import make_ondisk  # noqa: E402


@pytest.fixture
def ds():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture
def ondisk(tmp_path, ds):
    root = str(tmp_path / "ondisk")
    write_ondisk_dataset(ds, root, rows_per_shard=64)
    return OnDiskDataset(root)


class TestOnDiskRoundtrip:
    def test_manifest_format_and_fingerprints(self, ondisk):
        manifest = json.loads(
            open(os.path.join(ondisk.root, "manifest.json")).read()
        )
        assert manifest["format"] == ONDISK_FORMAT
        assert manifest["files"]
        for entry in manifest["files"].values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0

    def test_gather_parity_with_in_ram(self, ondisk, ds):
        rng = np.random.default_rng(0)
        rows = rng.choice(ds.graph.num_vertices, size=57, replace=False)
        np.testing.assert_array_equal(
            ondisk.gather_features(rows), ds.features[rows]
        )
        np.testing.assert_array_equal(
            ondisk.gather_labels(rows), ds.labels[rows]
        )
        # dtypes survive exactly
        assert ondisk.gather_features(rows).dtype == ds.features.dtype
        assert ondisk.gather_labels(rows).dtype == ds.labels.dtype
        # repeats, reversed order and reads that cross shard boundaries
        n = ds.graph.num_vertices
        rows = np.array([n - 1, 0, 0, 5, 63, 64, 65, n - 1, 1, 64])
        np.testing.assert_array_equal(
            ondisk.gather_features(rows), ds.features[rows]
        )

    @pytest.mark.parametrize("bad", [-1, "n"])
    def test_out_of_range_ids_raise_index_error(self, ondisk, bad):
        """An id outside [0, n) is named, not reported as a corrupt
        shard (id n) or wrapped to vertex n-1 (id -1)."""
        bad = ondisk.num_vertices if bad == "n" else bad
        rows = np.array([3, bad, 5, bad - 1 if bad > 0 else -7])
        for gather in (ondisk.gather_features, ondisk.gather_labels):
            with pytest.raises(IndexError, match=f"vertex id {bad} "):
                gather(rows)

    def test_topology_parity(self, ondisk, ds):
        for v in (0, 1, ds.graph.num_vertices - 1):
            np.testing.assert_array_equal(
                np.sort(ondisk.graph.in_neighbors(v)),
                np.sort(ds.graph.in_neighbors(v)),
            )
            np.testing.assert_array_equal(
                np.sort(ondisk.graph.out_neighbors(v)),
                np.sort(ds.graph.out_neighbors(v)),
            )
        assert ondisk.graph.num_edges == ds.graph.num_edges

    def test_masks_and_metadata(self, ondisk, ds):
        np.testing.assert_array_equal(ondisk.train_mask, ds.train_mask)
        np.testing.assert_array_equal(ondisk.val_mask, ds.val_mask)
        np.testing.assert_array_equal(ondisk.test_mask, ds.test_mask)
        assert ondisk.feat_dim == ds.feat_dim
        assert ondisk.num_classes == ds.num_classes
        assert ondisk.num_vertices == ds.graph.num_vertices

    def test_materialize_round_trip(self, ondisk, ds):
        back = ondisk.materialize()
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.graph.num_edges == ds.graph.num_edges

    def test_verify_passes_on_clean_tree(self, ondisk):
        ondisk.verify()  # must not raise


class TestIntegrity:
    def test_corrupted_feature_shard_raises(self, ondisk):
        path = os.path.join(ondisk.root, "features", "shard-00000.npy")
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(OnDiskIntegrityError, match="shard-00000"):
            ondisk.verify()

    def test_corrupted_topology_raises(self, ondisk):
        path = os.path.join(ondisk.root, "topology", "csc.indices.npy")
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(OnDiskIntegrityError, match="csc.indices"):
            ondisk.verify()

    def test_truncated_shard_caught_at_open(self, tmp_path, ds):
        root = str(tmp_path / "ondisk")
        write_ondisk_dataset(ds, root, rows_per_shard=64)
        path = os.path.join(root, "features", "shard-00001.npy")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(OnDiskIntegrityError):
            OnDiskDataset(root)

    def test_unknown_format_rejected(self, tmp_path, ds):
        root = str(tmp_path / "ondisk")
        write_ondisk_dataset(ds, root, rows_per_shard=64)
        mpath = os.path.join(root, "manifest.json")
        manifest = json.loads(open(mpath).read())
        manifest["format"] = "repro.ondisk/999"
        open(mpath, "w").write(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            OnDiskDataset(root)


class TestMemmapHDG:
    """An HDG over a memory-mapped graph is a plain HDG whose leaf arrays
    are the graph's memmapped CSC."""

    def test_hdg_from_ondisk_graph_is_memmap(self, ondisk):
        hdg = hdg_from_graph(ondisk.graph)
        indptr, indices = ondisk.graph.csc
        assert isinstance(hdg.leaf_vertices, np.memmap)
        assert isinstance(hdg.leaf_offsets, np.memmap)
        assert np.shares_memory(hdg.leaf_vertices, indices)
        assert np.shares_memory(hdg.leaf_offsets, indptr)

    def test_restrict_parity_with_in_ram(self, ondisk, ds):
        mm = hdg_from_graph(ondisk.graph)
        ram = hdg_from_graph(ds.graph)
        roots = np.array([0, 3, 17, ds.graph.num_vertices - 1])
        a = mm.restrict_to_roots(roots)
        b = ram.restrict_to_roots(roots)
        np.testing.assert_array_equal(a.leaf_vertices, b.leaf_vertices)
        np.testing.assert_array_equal(a.leaf_offsets, b.leaf_offsets)
        np.testing.assert_array_equal(a.roots, b.roots)

    @pytest.mark.parametrize("strategy", ["sa", "ha"])
    def test_rewritten_dataset_never_reuses_a_stale_plan(self, tmp_path,
                                                         strategy):
        """A dataset regenerated in place — different edges, equal file
        sizes, mtimes preserved (``cp -p``, ``rsync -t``, a coarse-mtime
        filesystem) — must aggregate its *own* edges: a reduction plan
        belongs to the HDG object it was built from, not to whatever
        (path, size, mtime) that HDG's files happen to show."""
        root = str(tmp_path / "regen")
        spec = ShardedSyntheticSpec(
            name="regen", num_vertices=500, num_edges=4000, feat_dim=4,
            num_classes=2, edges_per_chunk=2000, rows_per_shard=256,
        )
        feats = Tensor(np.random.default_rng(0).standard_normal((500, 4)))

        def open_hdg():
            hdg = hdg_from_graph(OnDiskDataset(root).graph)
            return hdg, [hdg.leaf_offsets.filename, hdg.leaf_vertices.filename]

        def aggregate(hdg):
            out = hierarchical_aggregate(hdg, feats, [SumAggregator()],
                                         strategy).numpy()
            dst, src = hdg.sub_graph(1)
            ref = np.zeros_like(feats.data)
            np.add.at(ref, dst, feats.data[src])
            return out, ref

        write_synthetic_ondisk(root, spec)
        first_hdg, files = open_hdg()
        stamps = [os.stat(f) for f in files]
        out1, ref1 = aggregate(first_hdg)
        np.testing.assert_allclose(out1, ref1, atol=1e-9)

        shutil.rmtree(root)
        write_synthetic_ondisk(root, dataclasses.replace(spec, seed=1))
        for f, st in zip(files, stamps):
            assert os.stat(f).st_size == st.st_size
            os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
        out2, ref2 = aggregate(open_hdg()[0])
        assert not np.allclose(ref2, ref1), "the two datasets must differ"
        np.testing.assert_allclose(out2, ref2, atol=1e-9)


class TestOneGraph:
    """An on-disk graph is a :class:`Graph` over the stored files: it
    fingerprints like the graph it was written from, and a GCN's HDG is
    its CSC, shared rather than copied, in either tier."""

    SPEC = ShardedSyntheticSpec(
        name="fp-test", num_vertices=700, num_edges=6000, feat_dim=4,
        num_classes=2, seed=3, edges_per_chunk=2500, rows_per_shard=256,
    )

    def test_fingerprint_is_the_source_graphs(self, ondisk, ds):
        assert ondisk.graph.fingerprint() == ds.graph.fingerprint()
        manifest = json.loads(
            open(os.path.join(ondisk.root, "manifest.json")).read())
        assert "graph_fingerprint" not in manifest

    def test_an_older_manifests_fingerprint_is_ignored(self, ondisk, ds):
        path = os.path.join(ondisk.root, "manifest.json")
        manifest = json.loads(open(path).read())
        manifest["graph_fingerprint"] = "cb9f15b081d9752f"
        open(path, "w").write(json.dumps(manifest))
        assert (OnDiskDataset(ondisk.root).graph.fingerprint()
                == ds.graph.fingerprint())

    def test_synthetic_fingerprint_is_the_materialized_graphs(self, tmp_path):
        root = str(tmp_path / "gen")
        write_synthetic_ondisk(root, self.SPEC)
        od = OnDiskDataset(root)
        assert od.graph.fingerprint() == od.materialize().graph.fingerprint()

    @pytest.mark.parametrize("name, digest", [
        ("reddit_like(500)", "f7b49c18614de10d"),
        ("reddit", "c7deb6a89505320a"),
        ("imdb", "e96a8881051835ca"),
    ])
    def test_in_ram_digests_are_pinned(self, name, digest):
        """Checkpoints already written record these digests."""
        graph = (reddit_like(500) if name == "reddit_like(500)"
                 else load_dataset(name, scale="tiny")).graph
        assert graph.fingerprint() == digest

    def test_chunked_digest_is_the_one_shot_sort(self, ondisk, ds,
                                                 monkeypatch):
        src, dst = ds.graph.edges()
        n = ds.graph.num_vertices
        h = hashlib.sha256()
        h.update(np.int64(n).tobytes())
        h.update(np.sort(src * n + dst).tobytes())
        h.update(np.asarray(ds.graph.vertex_types).tobytes())
        one_shot = h.hexdigest()[:16]
        # many chunks, and hub rows that alone outgrow one
        assert ds.graph.out_degree().max() > 64
        monkeypatch.setattr(graph_module, "FINGERPRINT_CHUNK", 64)
        assert ds.graph.fingerprint() == one_shot
        assert ondisk.graph.fingerprint() == one_shot

    def test_materialize_adopts_the_stored_arrays(self, ondisk, ds):
        back = ondisk.materialize().graph
        for got, want in zip([*back.csr, *back.csc, back.vertex_types],
                             [*ds.graph.csr, *ds.graph.csc,
                              ds.graph.vertex_types]):
            assert not isinstance(got, np.memmap)
            np.testing.assert_array_equal(got, want)
        assert back.type_names == ds.graph.type_names

    @pytest.mark.parametrize("tier", ["ram", "ondisk"])
    def test_gcn_hdg_shares_the_read_only_csc(self, tier, ondisk):
        graph = reddit_like(500).graph if tier == "ram" else ondisk.graph
        hdg = hdg_from_graph(graph)
        indptr, indices = graph.csc
        assert np.shares_memory(hdg.leaf_vertices, indices)
        assert np.shares_memory(hdg.leaf_offsets, indptr)
        for arr in (*graph.csr, *graph.csc, graph.vertex_types):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            hdg.leaf_vertices[0] = 0

    def test_open_reads_no_topology_array(self, ondisk):
        """Opening maps the topology and takes the type count from the
        manifest's names: no array is scanned."""
        path = os.path.join(ondisk.root, "manifest.json")
        manifest = json.loads(open(path).read())
        manifest["type_names"] = ["a", "b", "c", "d"]
        manifest.pop("num_types")
        open(path, "w").write(json.dumps(manifest))
        graph = OnDiskDataset(ondisk.root).graph
        assert graph.num_types == 4
        for arr in (*graph.csr, *graph.csc, graph.vertex_types):
            assert isinstance(arr, np.memmap)


class TestShardedGenerator:
    SPEC = ShardedSyntheticSpec(
        name="gen-test", num_vertices=2000, num_edges=30_000, feat_dim=8,
        num_classes=4, seed=5, edges_per_chunk=7000, rows_per_shard=512,
    )

    def test_edge_chunks_deterministic(self):
        a = [chunk for chunk in edge_chunks(self.SPEC)]
        b = [chunk for chunk in edge_chunks(self.SPEC)]
        assert len(a) == self.SPEC.num_edge_chunks
        for (sa, da), (sb, db) in zip(a, b):
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(da, db)

    def test_chunks_cover_requested_edges(self):
        total = sum(src.size for src, _ in edge_chunks(self.SPEC))
        assert total == self.SPEC.num_edges

    def test_degree_distribution_heavy_tailed(self):
        n = self.SPEC.num_vertices
        deg = np.zeros(n, dtype=np.int64)
        for _src, dst in edge_chunks(self.SPEC):
            np.add.at(deg, dst, 1)
        mean = deg.mean()
        assert mean == pytest.approx(self.SPEC.avg_degree)
        # power-law-ish: the max hub dwarfs the mean and the top 1% of
        # vertices holds several times its proportional share of edges
        assert deg.max() > 10 * mean
        top = np.sort(deg)[-max(n // 100, 1):].sum()
        assert top / deg.sum() > 0.04

    def test_shard_helpers_consistent(self):
        lo, hi = shard_row_range(self.SPEC, 1)
        assert (lo, hi) == (512, 1024)
        labels = label_shard(self.SPEC, 1)
        assert labels.shape == (hi - lo,)
        feats = feature_shard(self.SPEC, 1, labels)
        assert feats.shape == (hi - lo, self.SPEC.feat_dim)
        assert str(feats.dtype) == self.SPEC.feature_dtype
        train, val, test = mask_shards(self.SPEC, 1)
        assert not np.any(train & val) and not np.any(train & test)

    def test_write_synthetic_ondisk_round_trip(self, tmp_path):
        root = str(tmp_path / "gen")
        write_synthetic_ondisk(root, self.SPEC)
        od = OnDiskDataset(root)
        od.verify()
        assert od.num_vertices == self.SPEC.num_vertices
        assert od.graph.num_edges == self.SPEC.num_edges
        # CSC matches the edge stream exactly
        deg = np.zeros(self.SPEC.num_vertices, dtype=np.int64)
        for _src, dst in edge_chunks(self.SPEC):
            np.add.at(deg, dst, 1)
        np.testing.assert_array_equal(od.graph.in_degree(), deg)
        # features come back shard-identical
        lo, hi = shard_row_range(self.SPEC, 0)
        labels = label_shard(self.SPEC, 0)
        np.testing.assert_array_equal(
            od.gather_features(np.arange(lo, hi)),
            feature_shard(self.SPEC, 0, labels),
        )


class TestPinnedWriterOutput:
    """The streamed writer's files, pinned by hash: a change to how the
    writer groups edges must leave every file bit-identical.  Over 2**16
    vertices, so the CSR/CSC builds order ids with two radix passes."""

    SPEC = ShardedSyntheticSpec(
        num_vertices=70_000, num_edges=30_000, feat_dim=4, num_classes=4,
        edges_per_chunk=8_000, rows_per_shard=32_768,
    )
    SHA256 = {
        "features/shard-00000.npy": "5462e437defc8848",
        "features/shard-00001.npy": "4dc05a1d46d93778",
        "features/shard-00002.npy": "5cd9692064d5c843",
        "labels.npy": "57e3a9fb068faf8c",
        "masks/test.npy": "a1105551da857327",
        "masks/train.npy": "f9222d29cfdc8305",
        "masks/val.npy": "84ad276bf0d0752b",
        "topology/csc.indices.npy": "51dd6e76fc9fd3b7",
        "topology/csc.indptr.npy": "2c969728114eda0d",
        "topology/csr.indices.npy": "89b1626241fac428",
        "topology/csr.indptr.npy": "6373124436a37476",
        "vertex_types.npy": "79b34da5b2a661fa",
    }

    def test_manifest_hashes_are_pinned(self, tmp_path):
        manifest = write_synthetic_ondisk(str(tmp_path / "gen"), self.SPEC)
        assert {rel: entry["sha256"][:16]
                for rel, entry in manifest["files"].items()} == self.SHA256


class TestMakeOndiskTool:
    """``tools/make_ondisk.py`` end to end: generate, verify, int8."""

    GENERATE = [
        "--generate", "--num-vertices", "2000", "--num-edges", "12000",
        "--feat-dim", "32", "--num-classes", "4",
        "--edges-per-chunk", "4000", "--rows-per-shard", "512",
    ]

    @staticmethod
    def _features_bytes(root):
        features = os.path.join(root, "features")
        return sum(
            os.path.getsize(os.path.join(features, name))
            for name in os.listdir(features)
        )

    def test_generate_verify_and_int8_shrink(self, tmp_path, capsys):
        fp32, int8 = str(tmp_path / "fp32"), str(tmp_path / "int8")
        assert make_ondisk.main([*self.GENERATE, fp32]) == 0
        assert make_ondisk.main(
            [*self.GENERATE, "--quantize", "int8", int8]
        ) == 0
        for root in (fp32, int8):
            assert make_ondisk.main(["--verify", root]) == 0
        out = capsys.readouterr().out
        assert out.count("all fingerprints match") == 2
        digest = OnDiskDataset(fp32).graph.fingerprint()
        assert out.count(f"graph fingerprint: {digest}") == 2
        assert OnDiskDataset(int8).codec == "int8"
        # int8 codes + float32 scale sidecars vs float32 rows: d+4 vs 4d
        # bytes per row, so >= 3x smaller on disk for d >= 16.
        assert self._features_bytes(int8) * 3 <= self._features_bytes(fp32)
