"""Dataset storage — the ``repro.ondisk/1`` format.

FlexGraph's bottom layer (Figure 12) is a storage system that feeds
graph topology and vertex features to the layers above it.  This
module is the one dataset format: a directory of flat binary files
under a JSON manifest, designed so that *nothing* is ever read in
full —

* topology as memory-mapped CSC **and** CSR ``.npy`` pairs
  (``indptr``/``indices``), so neighbor lookups touch only the pages a
  batch's vertices live on;
* features and labels row-sharded into fixed-width ``.npy`` shards,
  gathered row-wise with positional reads
  (:meth:`OnDiskDataset.gather_features`) so peak process RSS stays
  O(batch) — the kernel's page cache does the caching, not the process;
* a ``manifest.json`` carrying the format version, shapes, dtypes and a
  SHA-256 content fingerprint per file, verified on demand
  (:meth:`OnDiskDataset.verify`) so a truncated or corrupted shard
  fails loudly instead of training on garbage.

A distributed worker's partition is a row gather over the same files:
``gather_features(partition.parts[w])`` / ``gather_labels(...)``, with
:attr:`OnDiskDataset.wire_bytes_per_row` as the cost of a remote fetch.

Writers come in two flavors: :func:`write_ondisk_dataset` converts an
in-RAM :class:`~repro.datasets.synthetic.Dataset`, and
:func:`write_synthetic_ondisk` *generates* a dataset shard-by-shard
from a :class:`~repro.datasets.synthetic.ShardedSyntheticSpec` —
a two-pass counting-then-filling CSC/CSR build that regenerates edge
chunks instead of buffering them, so 10^7-10^8-edge graphs are written
with O(num_vertices) peak memory.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os

import numpy as np

from ..datasets.synthetic import (
    Dataset,
    ShardedSyntheticSpec,
    class_centers,
    edge_chunks,
    feature_shard,
    label_shard,
    mask_shards,
    shard_row_range,
)
from ..graph.graph import Graph, group_by, vertex_ids
from ..obs.profile import record_op
from ..tensor.quant import (
    decode_int8,
    quantize_rows,
    resolve_codec,
    storage_dtype,
    wire_bytes_per_row as _codec_row_bytes,
)

__all__ = [
    "ONDISK_FORMAT",
    "OnDiskIntegrityError",
    "OnDiskDataset",
    "write_ondisk_dataset",
    "write_synthetic_ondisk",
]

ONDISK_FORMAT = "repro.ondisk/1"

MANIFEST_NAME = "manifest.json"
_HASH_BLOCK = 1 << 23  # 8 MiB


class OnDiskIntegrityError(ValueError):
    """A file's content no longer matches its manifest fingerprint."""


# ----------------------------------------------------------------------
# Manifest plumbing
# ----------------------------------------------------------------------

def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            block = f.read(_HASH_BLOCK)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def _file_entry(root: str, rel: str) -> dict:
    path = os.path.join(root, rel)
    entry = {"sha256": _file_sha256(path), "bytes": os.path.getsize(path)}
    if rel.endswith(".npy"):
        arr = np.load(path, mmap_mode="r")
        entry["dtype"] = str(arr.dtype)
        entry["shape"] = list(arr.shape)
        del arr
    return entry


def _check_format(manifest: dict, root: str) -> None:
    fmt = manifest.get("format")
    if fmt != ONDISK_FORMAT:
        raise ValueError(
            f"{root}: on-disk format {fmt!r} not supported "
            f"(expected {ONDISK_FORMAT!r})"
        )


def _write_manifest(root: str, meta: dict, rel_files: list[str]) -> dict:
    manifest = dict(meta)
    manifest["format"] = ONDISK_FORMAT
    manifest["files"] = {rel: _file_entry(root, rel) for rel in sorted(rel_files)}
    with open(os.path.join(root, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    return manifest


def _feature_shard_rel(shard: int) -> str:
    return f"features/shard-{shard:05d}.npy"


def _scale_shard_rel(shard: int) -> str:
    """Per-row float32 scale sidecar for an int8-quantized feature shard."""
    return f"features/scale-{shard:05d}.npy"


def _open_memmap(path: str) -> np.ndarray:
    """``np.load(mmap_mode="r")`` plus ``MADV_RANDOM``.

    Batch lookups fault pages in *sorted* vertex order, which the
    kernel's readahead heuristic mistakes for a sequential scan — it
    then pulls the gaps in too, making whole files resident and
    defeating the O(batch) residency this format exists for.  Advising
    random access keeps faults to exactly the touched pages.
    """
    arr = np.load(path, mmap_mode="r")
    base = getattr(arr, "_mmap", None)
    if base is not None and hasattr(base, "madvise") and hasattr(mmap, "MADV_RANDOM"):
        base.madvise(mmap.MADV_RANDOM)
    return arr


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------

class OnDiskDataset:
    """A graph learning task whose arrays live on disk.

    Mirrors :class:`~repro.datasets.synthetic.Dataset`'s surface
    (``graph``/``labels``/masks/``num_classes``/``feat_dim``) but the
    topology and labels are memmaps and features are gathered row-wise
    from shards — peak resident memory is O(batch), not O(dataset).
    Implements the :class:`repro.loader.DataSource` protocol directly,
    so it plugs straight into :class:`repro.loader.StreamingLoader` and
    both mini-batch trainers.
    """

    def __init__(self, root: str):
        self.root = root
        manifest_path = os.path.join(root, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"no {MANIFEST_NAME} under {root}")
        with open(manifest_path) as f:
            self.manifest = json.load(f)
        _check_format(self.manifest, root)
        self._check_layout()
        self.name = str(self.manifest.get("name", os.path.basename(root)))
        self.graph = self._adopt_graph(_open_memmap)
        self.feat_dim = int(self.manifest["feat_dim"])
        self.num_classes = int(self.manifest["num_classes"])
        self.rows_per_shard = int(self.manifest["rows_per_shard"])
        self.num_feature_shards = int(self.manifest["num_feature_shards"])
        self.feature_dtype = np.dtype(self.manifest["feature_dtype"])
        self._init_codec()
        self.labels = _open_memmap(os.path.join(root, "labels.npy"))
        # Split masks are one byte per vertex — always safe to load.
        self.train_mask = np.load(os.path.join(root, "masks/train.npy"))
        self.val_mask = np.load(os.path.join(root, "masks/val.npy"))
        self.test_mask = np.load(os.path.join(root, "masks/test.npy"))
        self._shard_files: dict[int, tuple] = {}

    def _adopt_graph(self, load) -> Graph:
        """A :class:`Graph` over the stored CSR, CSC and vertex types,
        each opened by ``load(path)``.  The type count is the manifest's
        ``type_names``, so no array is read here."""
        arr = lambda rel: load(os.path.join(self.root, rel))  # noqa: E731
        pair = lambda kind: (arr(f"topology/{kind}.indptr.npy"),  # noqa: E731
                             arr(f"topology/{kind}.indices.npy"))
        return Graph.from_adjacency(
            int(self.manifest["num_vertices"]), pair("csr"), pair("csc"),
            vertex_types=arr("vertex_types.npy"),
            type_names=self.manifest.get("type_names"),
        )

    def _init_codec(self) -> None:
        """Resolve the optional quantized-feature codec from the manifest.

        Without a ``feature_codec`` key the dataset is an exact store:
        gathers return the storage dtype untouched.  With one,
        the storage dtype must match the codec (int8 additionally needs
        one ``features/scale-*.npy`` float32 sidecar per shard) and
        gathers decode into float32.  Every mismatch is an
        :class:`OnDiskIntegrityError` — silently training on
        misdecoded features is the failure mode this guards against.
        The decode dtype older writers recorded in int8 manifests is
        ignored.
        """
        codec = self.manifest.get("feature_codec")
        self._scale_cache: dict[int, np.ndarray] = {}
        if codec is None:
            self.codec = None
            return
        try:
            self.codec = resolve_codec(codec)
        except ValueError as exc:
            raise OnDiskIntegrityError(f"{self.root}: {exc}") from exc
        storage = storage_dtype(self.codec)
        if storage != self.feature_dtype:
            raise OnDiskIntegrityError(
                f"{self.root}: feature_codec {self.codec!r} stores "
                f"{storage}, but manifest feature_dtype is {self.feature_dtype}"
            )
        if self.codec == "int8":
            for shard in range(self.num_feature_shards):
                if _scale_shard_rel(shard) not in self.manifest["files"]:
                    raise OnDiskIntegrityError(
                        f"{self.root}: int8 features but no scale sidecar "
                        f"{_scale_shard_rel(shard)!r} in the manifest — "
                        "dataset was not written by --quantize int8?"
                    )

    # -- DataSource protocol -------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def wire_bytes_per_row(self) -> int:
        """Bytes one gathered row moves in the stored (wire) format."""
        if self.codec is not None:
            return _codec_row_bytes(self.codec, self.feat_dim)
        return self.feat_dim * self.feature_dtype.itemsize

    def _shard_scales(self, shard: int) -> np.ndarray:
        """The float32 per-row scale sidecar of one int8 shard (cached;
        sidecars are 4 bytes/row, ~0.1% of what the fp32 rows were)."""
        scales = self._scale_cache.get(shard)
        if scales is None:
            scales = np.load(os.path.join(self.root, _scale_shard_rel(shard)))
            if scales.dtype != np.float32 or scales.ndim != 1:
                raise OnDiskIntegrityError(
                    f"{self.root}: scale sidecar for shard {shard} must be "
                    f"1-D float32, got {scales.dtype} {scales.shape}"
                )
            self._scale_cache[shard] = scales
        return scales

    def _shard_reader(self, shard: int) -> tuple:
        """(open file, data offset) for one feature shard.

        Features are gathered with positional reads rather than a
        memmap: memmap gathers fault whole readahead/fault-around
        windows into the *process* (page granularity is 16+ pages on
        stock Linux), so a scattered batch can make entire shards
        resident.  ``pread`` copies only the read windows
        :meth:`gather_features` asks for; the kernel keeps its page
        cache to itself and peak RSS stays O(batch).
        """
        entry = self._shard_files.get(shard)
        if entry is None:
            f = open(os.path.join(self.root, _feature_shard_rel(shard)), "rb")
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
            else:
                raise OnDiskIntegrityError(
                    f"{self.root}: feature shard {shard} has unsupported "
                    f".npy version {version}"
                )
            if fortran or dtype != self.feature_dtype or shape[1:] != (self.feat_dim,):
                raise OnDiskIntegrityError(
                    f"{self.root}: feature shard {shard} header "
                    f"(dtype={dtype}, shape={shape}, fortran={fortran}) does "
                    f"not match manifest (dtype={self.feature_dtype}, "
                    f"feat_dim={self.feat_dim})"
                )
            entry = (f, f.tell())
            self._shard_files[shard] = entry
        return entry

    def _pread_rows(self, shard: int, first_local: int, count: int) -> np.ndarray:
        row_nbytes = self.feat_dim * self.feature_dtype.itemsize
        f, data0 = self._shard_reader(shard)
        nbytes = count * row_nbytes
        buf = os.pread(f.fileno(), nbytes, data0 + first_local * row_nbytes)
        if len(buf) != nbytes:
            raise OnDiskIntegrityError(
                f"{self.root}: short read in feature shard {shard} "
                f"(wanted {nbytes} bytes at row {first_local}, got {len(buf)})"
            )
        return np.frombuffer(buf, dtype=self.feature_dtype).reshape(
            count, self.feat_dim
        )

    def gather_features(self, rows: np.ndarray) -> np.ndarray:
        """Feature rows (in the requested order) read out of the shards.

        The sorted requests are split into read windows, one positional
        read each.  A window ends at a shard boundary or before a gap
        wider than one page (``mmap.PAGESIZE``), so a window reads only
        pages its rows touch or gaps of at most one page between them:
        the bytes read are at most 2 × (pages the requested rows touch)
        × ``PAGESIZE``, and residency stays O(batch).

        Quantized datasets pread rows in the storage dtype and decode
        them into the float32 output on the way out (int8: codes ×
        scale; float16: one cast), so for int8 both the transient buffer
        and the page traffic are ~4× smaller than an fp32 store; the
        ``feature.gather`` profiler op records the wire-format bytes
        actually read.  An exact store returns its storage dtype.
        """
        rows = vertex_ids(rows, self.num_vertices)
        quant = self.codec == "int8"
        out = np.empty((rows.size, self.feat_dim),
                       dtype=self.feature_dtype if self.codec is None
                       else np.float32)
        if rows.size == 0:
            return out
        row_nbytes = self.feat_dim * self.feature_dtype.itemsize
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        shard_of = sorted_rows // self.rows_per_shard
        local = sorted_rows - shard_of * self.rows_per_shard
        gap_bytes = (np.diff(sorted_rows) - 1) * row_nbytes
        breaks = np.flatnonzero((np.diff(shard_of) != 0)
                                | (gap_bytes > mmap.PAGESIZE)) + 1
        wire = 0
        for s, e in zip(np.concatenate(([0], breaks)),
                        np.concatenate((breaks, [rows.size]))):
            shard = int(shard_of[s])
            lo, hi = int(local[s]), int(local[e - 1]) + 1
            span = self._pread_rows(shard, lo, hi - lo)
            wire += span.nbytes
            picked = span[local[s:e] - lo]
            if quant:
                wire += (e - s) * 4
                picked = decode_int8(
                    picked, self._shard_scales(shard)[local[s:e]])
            out[order[s:e]] = picked
        record_op(
            "feature.gather",
            flops=2.0 * out.size if quant else 0.0,
            bytes_read=wire,
            bytes_written=out.nbytes,
        )
        return out

    def gather_labels(self, rows: np.ndarray) -> np.ndarray:
        rows = vertex_ids(rows, self.num_vertices)
        return np.asarray(self.labels[rows], dtype=self.labels.dtype)

    # -- Integrity ------------------------------------------------------
    def _check_layout(self) -> None:
        """Cheap open-time check: every manifest file exists with the
        recorded size (full hashing is :meth:`verify`)."""
        for rel, entry in self.manifest["files"].items():
            path = os.path.join(self.root, rel)
            if not os.path.exists(path):
                raise OnDiskIntegrityError(f"{self.root}: missing file {rel!r}")
            actual = os.path.getsize(path)
            if actual != entry["bytes"]:
                raise OnDiskIntegrityError(
                    f"{self.root}: {rel!r} is {actual} bytes, manifest "
                    f"records {entry['bytes']} (truncated or overwritten?)"
                )

    def verify(self) -> None:
        """Recompute every file's SHA-256 and compare with the manifest.

        Raises :class:`OnDiskIntegrityError` naming the first corrupted
        file; one full sequential read per file, no decompression.
        """
        for rel, entry in sorted(self.manifest["files"].items()):
            actual = _file_sha256(os.path.join(self.root, rel))
            if actual != entry["sha256"]:
                raise OnDiskIntegrityError(
                    f"{self.root}: content fingerprint mismatch for {rel!r} "
                    f"(manifest {entry['sha256'][:12]}…, file {actual[:12]}…) — "
                    "shard corrupted; regenerate the dataset"
                )

    # -- Escape hatch ---------------------------------------------------
    def materialize(self) -> Dataset:
        """Load everything into an in-RAM :class:`Dataset` (small
        datasets, parity tests, exact full-graph evaluation).  The graph
        adopts in-RAM copies of the stored arrays, rows in stored order."""
        n = self.num_vertices
        return Dataset(
            name=self.name,
            graph=self._adopt_graph(np.load),
            features=self.gather_features(np.arange(n, dtype=np.int64)),
            labels=np.asarray(self.labels),
            train_mask=self.train_mask.copy(),
            val_mask=self.val_mask.copy(),
            test_mask=self.test_mask.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"OnDiskDataset({self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.graph.num_edges}, feat_dim={self.feat_dim}, "
            f"shards={self.num_feature_shards}, root={self.root!r})"
        )


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------

def _prepare_root(root: str) -> None:
    for sub in ("topology", "features", "masks"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)


def _save(root: str, rel: str, arr: np.ndarray) -> str:
    np.save(os.path.join(root, rel.removesuffix(".npy")), arr)
    return rel


def _write_feature_shard(root: str, shard: int, rows: np.ndarray,
                         codec: str | None, rel_files: list[str]) -> None:
    """Write one feature shard, quantizing (plus scale sidecar) if asked."""
    if codec is None:
        rel_files.append(_save(root, _feature_shard_rel(shard), rows))
        return
    q = quantize_rows(rows, codec)
    rel_files.append(_save(root, _feature_shard_rel(shard), q.codes))
    if q.scales is not None:
        rel_files.append(_save(root, _scale_shard_rel(shard), q.scales))


def _codec_meta(codec: str | None, exact_dtype) -> dict:
    """Manifest keys describing the feature codec of a written dataset."""
    if codec is None:
        return {"feature_dtype": str(np.dtype(exact_dtype))}
    return {"feature_dtype": str(storage_dtype(codec)), "feature_codec": codec}


def write_ondisk_dataset(dataset: Dataset, root: str,
                         rows_per_shard: int = 4096,
                         quantize: str | None = None) -> dict:
    """Convert an in-RAM :class:`Dataset` to the on-disk layout.

    Feature/label dtypes are preserved exactly unless ``quantize`` names
    a codec (``int8``/``float16``/``float32``), in which case feature
    shards are stored in that codec (int8 with per-row float32 scale
    sidecars) and gathers dequantize on read.  Returns the manifest.
    """
    if rows_per_shard <= 0:
        raise ValueError("rows_per_shard must be positive")
    codec = None if quantize is None else resolve_codec(quantize)
    _prepare_root(root)
    graph = dataset.graph
    n = graph.num_vertices
    rel_files: list[str] = []
    csc_indptr, csc_indices = graph.csc
    csr_indptr, csr_indices = graph.csr
    rel_files.append(_save(root, "topology/csc.indptr.npy", np.asarray(csc_indptr, dtype=np.int64)))
    rel_files.append(_save(root, "topology/csc.indices.npy", np.asarray(csc_indices, dtype=np.int64)))
    rel_files.append(_save(root, "topology/csr.indptr.npy", np.asarray(csr_indptr, dtype=np.int64)))
    rel_files.append(_save(root, "topology/csr.indices.npy", np.asarray(csr_indices, dtype=np.int64)))
    rel_files.append(_save(root, "vertex_types.npy", np.asarray(graph.vertex_types, dtype=np.int64)))
    rel_files.append(_save(root, "labels.npy", dataset.labels))
    rel_files.append(_save(root, "masks/train.npy", dataset.train_mask.astype(bool)))
    rel_files.append(_save(root, "masks/val.npy", dataset.val_mask.astype(bool)))
    rel_files.append(_save(root, "masks/test.npy", dataset.test_mask.astype(bool)))
    num_shards = max(1, -(-n // rows_per_shard))
    for shard in range(num_shards):
        row0 = shard * rows_per_shard
        row1 = min(row0 + rows_per_shard, n)
        _write_feature_shard(root, shard, dataset.features[row0:row1],
                             codec, rel_files)
    meta = {
        "name": dataset.name,
        "num_vertices": n,
        "num_edges": graph.num_edges,
        "feat_dim": int(dataset.features.shape[1]),
        "num_classes": int(dataset.num_classes),
        "label_dtype": str(dataset.labels.dtype),
        "rows_per_shard": rows_per_shard,
        "num_feature_shards": num_shards,
        "num_types": int(graph.num_types),
        "type_names": list(graph.type_names),
    }
    meta.update(_codec_meta(codec, dataset.features.dtype))
    return _write_manifest(root, meta, rel_files)


def _streamed_adjacency(root: str, spec: ShardedSyntheticSpec,
                        by_dst: bool) -> tuple[str, str]:
    """Two-pass out-of-core CSC (``by_dst``) or CSR build.

    Pass 1 counts degrees (one O(num_vertices) int64 array); pass 2
    regenerates the identical edge chunks and scatters each chunk's
    endpoints into a preallocated ``.npy`` memmap at per-vertex write
    cursors.  Nothing edge-sized ever lives in RAM beyond one chunk.
    """
    n, m = spec.num_vertices, spec.num_edges
    counts = np.zeros(n, dtype=np.int64)
    for src, dst in edge_chunks(spec):
        counts += np.bincount(dst if by_dst else src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    kind = "csc" if by_dst else "csr"
    indptr_rel = f"topology/{kind}.indptr.npy"
    indices_rel = f"topology/{kind}.indices.npy"
    _save(root, indptr_rel, indptr)
    indices = np.lib.format.open_memmap(
        os.path.join(root, indices_rel), mode="w+", dtype=np.int64, shape=(m,)
    )
    cursors = indptr[:-1].copy()
    for src, dst in edge_chunks(spec):
        key, val = (dst, src) if by_dst else (src, dst)
        offsets, order = group_by(key, n)
        # The chunk's j-th edge in key order lands at its key's cursor
        # plus its rank in the key's run, j - offsets[key].
        shift = cursors - offsets[:-1]
        indices[shift[key[order]] + np.arange(key.size)] = val[order]
        cursors += np.diff(offsets)
    indices.flush()
    del indices
    return indptr_rel, indices_rel


def write_synthetic_ondisk(root: str, spec: ShardedSyntheticSpec,
                           quantize: str | None = None) -> dict:
    """Generate a :class:`ShardedSyntheticSpec` dataset directly to disk.

    Edge chunks, feature shards, labels and masks are produced and
    written one shard at a time; peak memory is O(num_vertices) for the
    degree/cursor arrays plus one chunk/shard buffer.  ``quantize``
    stores feature shards in a codec (int8 adds per-row scale
    sidecars).  Returns the manifest.
    """
    codec = None if quantize is None else resolve_codec(quantize)
    _prepare_root(root)
    n = spec.num_vertices
    rel_files: list[str] = []
    rel_files.extend(_streamed_adjacency(root, spec, by_dst=True))
    rel_files.extend(_streamed_adjacency(root, spec, by_dst=False))
    rel_files.append(_save(root, "vertex_types.npy", np.zeros(n, dtype=np.int64)))

    labels_mm = np.lib.format.open_memmap(
        os.path.join(root, "labels.npy"), mode="w+", dtype=np.int64, shape=(n,)
    )
    masks = {
        rel: np.lib.format.open_memmap(
            os.path.join(root, f"masks/{rel}.npy"), mode="w+",
            dtype=bool, shape=(n,),
        )
        for rel in ("train", "val", "test")
    }
    centers = class_centers(spec)
    for shard in range(spec.num_row_shards):
        row0, row1 = shard_row_range(spec, shard)
        labels = label_shard(spec, shard)
        labels_mm[row0:row1] = labels
        train, val, test = mask_shards(spec, shard)
        masks["train"][row0:row1] = train
        masks["val"][row0:row1] = val
        masks["test"][row0:row1] = test
        _write_feature_shard(
            root, shard,
            feature_shard(spec, shard, labels=labels, centers=centers),
            codec, rel_files,
        )
    labels_mm.flush()
    del labels_mm
    for mm in masks.values():
        mm.flush()
    del masks
    rel_files.append("labels.npy")
    rel_files.extend(f"masks/{rel}.npy" for rel in ("train", "val", "test"))

    meta = {
        "name": spec.name,
        "num_vertices": n,
        "num_edges": spec.num_edges,
        "feat_dim": spec.feat_dim,
        "num_classes": spec.num_classes,
        "label_dtype": "int64",
        "rows_per_shard": spec.rows_per_shard,
        "num_feature_shards": spec.num_row_shards,
        "num_types": 1,
        "type_names": ["type0"],
        "generator": spec.to_dict(),
    }
    meta.update(_codec_meta(codec, spec.feature_dtype))
    return _write_manifest(root, meta, rel_files)
