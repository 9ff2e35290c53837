"""Synthetic datasets standing in for Reddit, FB91, Twitter and IMDB.

Each dataset bundles a graph with vertex features, labels and train/val/
test masks.  Scales are laptop-sized; the *structural* property each
paper dataset contributes to the evaluation is preserved (see
``repro.graph.generators``).  Features are community/type-correlated so
models actually learn (training accuracy rises), which keeps the
examples honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.generators import community_graph, heterogeneous_graph, power_law_graph
from ..graph.graph import Graph

__all__ = [
    "Dataset", "reddit_like", "fb91_like", "twitter_like", "imdb_like",
    "ShardedSyntheticSpec", "edge_chunks", "label_shard", "feature_shard",
    "class_centers", "mask_shards", "shard_row_range",
]


@dataclass
class Dataset:
    """A graph learning task: graph + features + labels + splits."""

    name: str
    graph: Graph
    features: np.ndarray      # (num_vertices, feat_dim) float
    labels: np.ndarray        # (num_vertices,) int
    train_mask: np.ndarray    # (num_vertices,) bool
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def feat_dim(self) -> int:
        return int(self.features.shape[1])

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, vertices={self.graph.num_vertices}, "
            f"edges={self.graph.num_edges}, feat_dim={self.feat_dim}, "
            f"classes={self.num_classes})"
        )


def _make_splits(n: int, rng: np.random.Generator,
                 train: float = 0.6, val: float = 0.2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = rng.permutation(n)
    n_train = int(n * train)
    n_val = int(n * val)
    train_mask = np.zeros(n, dtype=bool)
    val_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train : n_train + n_val]] = True
    test_mask[order[n_train + n_val :]] = True
    return train_mask, val_mask, test_mask


def _class_features(labels: np.ndarray, feat_dim: int, num_classes: int,
                    rng: np.random.Generator, signal: float = 1.0) -> np.ndarray:
    """Gaussian features whose means differ per class (learnable signal),
    float32 like the on-disk spec's stored features."""
    centers = rng.standard_normal((num_classes, feat_dim)) * signal
    noise = rng.standard_normal((labels.size, feat_dim)) * 0.5
    return (centers[labels] + noise).astype(np.float32)


def reddit_like(num_vertices: int = 2000, num_labels: int = 8,
                avg_degree: float = 50.0, feat_dim: int = 64,
                seed: int = 0) -> Dataset:
    """Dense community graph (Reddit stand-in: 41 labels, avg degree ~100
    in the paper; scaled down here)."""
    rng = np.random.default_rng(seed)
    graph = community_graph(num_vertices, num_labels, avg_degree,
                            intra_prob=0.9, seed=seed)
    labels = graph.communities.copy()  # type: ignore[attr-defined]
    # The paper's MAGNN runs assign 3 vertex types to homogeneous graphs.
    graph = graph.with_vertex_types(rng.integers(0, 3, size=num_vertices))
    graph.communities = labels  # type: ignore[attr-defined]
    features = _class_features(labels, feat_dim, num_labels, rng)
    return Dataset("reddit-like", graph, features, labels,
                   *_make_splits(num_vertices, rng))


def fb91_like(num_vertices: int = 4000, num_labels: int = 10,
              avg_degree: float = 16.0, feat_dim: int = 50,
              seed: int = 1) -> Dataset:
    """Power-law LDBC-style graph (FB91 stand-in: 50 features, 10 labels)."""
    rng = np.random.default_rng(seed)
    graph = power_law_graph(num_vertices, avg_degree, seed=seed)
    graph = graph.with_vertex_types(rng.integers(0, 3, size=num_vertices))
    labels = rng.integers(0, num_labels, size=num_vertices)
    features = _class_features(labels, feat_dim, num_labels, rng)
    return Dataset("fb91-like", graph, features, labels,
                   *_make_splits(num_vertices, rng))


def twitter_like(num_vertices: int = 6000, num_labels: int = 5,
                 avg_degree: float = 20.0, feat_dim: int = 50,
                 seed: int = 2) -> Dataset:
    """Heavier-tailed social graph (Twitter stand-in: 50 features, 5 labels)."""
    rng = np.random.default_rng(seed)
    graph = power_law_graph(num_vertices, avg_degree, seed=seed)
    graph = graph.with_vertex_types(rng.integers(0, 3, size=num_vertices))
    labels = rng.integers(0, num_labels, size=num_vertices)
    features = _class_features(labels, feat_dim, num_labels, rng)
    return Dataset("twitter-like", graph, features, labels,
                   *_make_splits(num_vertices, rng))


def imdb_like(num_movies: int = 600, num_directors: int = 120,
              num_actors: int = 400, num_labels: int = 4,
              feat_dim: int = 64, seed: int = 3) -> Dataset:
    """Heterogeneous movie graph (IMDB stand-in: 3 vertex types, 4 labels).

    Labels are movie genres; directors/actors inherit the modal genre of
    their movies so all vertices carry a label for full-graph training.
    """
    rng = np.random.default_rng(seed)
    graph = heterogeneous_graph(num_movies, num_directors, num_actors, seed=seed)
    n = graph.num_vertices
    labels = np.zeros(n, dtype=np.int64)
    labels[:num_movies] = rng.integers(0, num_labels, size=num_movies)
    # Non-movie vertices take the most common genre among adjacent movies.
    for v in range(num_movies, n):
        nbrs = graph.out_neighbors(v)
        movie_nbrs = nbrs[nbrs < num_movies]
        if movie_nbrs.size:
            labels[v] = np.bincount(labels[movie_nbrs]).argmax()
        else:
            labels[v] = rng.integers(0, num_labels)
    features = _class_features(labels, feat_dim, num_labels, rng)
    return Dataset("imdb-like", graph, features, labels, *_make_splits(n, rng))


# ----------------------------------------------------------------------
# Shard-by-shard generation (out-of-core datasets)
# ----------------------------------------------------------------------
# The generators above materialize the whole graph; these emit it in
# bounded chunks so ``repro.storage.ondisk`` can write 10^7-10^8-edge
# datasets without ever holding the edge list, the feature matrix or
# even one full adjacency array in RAM.  Every chunk/shard is seeded
# independently (``SeedSequence([seed, tag, index])``) so the stream is
# deterministic *and* re-playable: the two-pass CSC/CSR build in
# ``write_synthetic_ondisk`` regenerates identical chunks on each pass.

_EDGE_TAG = 0xED6E
_LABEL_TAG = 0x1AB5
_FEAT_TAG = 0xFEA7
_MASK_TAG = 0x3A5C


@dataclass(frozen=True)
class ShardedSyntheticSpec:
    """Recipe for a power-law graph dataset generated shard-by-shard.

    Edges are drawn i.i.d. with heavy-tailed endpoints (inverse-CDF
    sampling of ``P(rank <= k) = (k/n)^(1-s)``), which makes every chunk
    independent of every other — the property that allows streaming
    generation.  Destination ranks are rotated by ``n // 2`` so in- and
    out-hubs are distinct vertices.
    """

    name: str = "sharded-synthetic"
    num_vertices: int = 100_000
    num_edges: int = 1_000_000
    feat_dim: int = 32
    num_classes: int = 8
    seed: int = 0
    src_exponent: float = 0.55
    dst_exponent: float = 0.45
    edges_per_chunk: int = 1_000_000
    rows_per_shard: int = 65_536
    train_fraction: float = 0.6
    val_fraction: float = 0.2
    feature_dtype: str = "float32"
    signal: float = 1.0

    @property
    def num_edge_chunks(self) -> int:
        return max(1, -(-self.num_edges // self.edges_per_chunk))

    @property
    def num_row_shards(self) -> int:
        return max(1, -(-self.num_vertices // self.rows_per_shard))

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(self.num_vertices, 1)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ShardedSyntheticSpec":
        return cls(**d)


def _power_law_ranks(u: np.ndarray, n: int, exponent: float) -> np.ndarray:
    """Map uniforms to ranks with ``P(rank <= k) ~ (k/n)^(1-s)``."""
    ranks = np.floor(n * u ** (1.0 / (1.0 - exponent))).astype(np.int64)
    return np.minimum(ranks, n - 1)


def shard_row_range(spec: ShardedSyntheticSpec, shard: int) -> tuple[int, int]:
    """Global ``[row0, row1)`` vertex range of a feature/label shard."""
    if not 0 <= shard < spec.num_row_shards:
        raise IndexError(f"shard {shard} out of range (have {spec.num_row_shards})")
    row0 = shard * spec.rows_per_shard
    return row0, min(row0 + spec.rows_per_shard, spec.num_vertices)


def edge_chunks(spec: ShardedSyntheticSpec):
    """Yield ``(src, dst)`` int64 chunk pairs, never more than
    ``edges_per_chunk`` edges at a time.  Deterministic per chunk."""
    n = spec.num_vertices
    rotate = n // 2 or 1
    remaining = spec.num_edges
    for chunk in range(spec.num_edge_chunks):
        m = min(spec.edges_per_chunk, remaining)
        remaining -= m
        rng = np.random.default_rng(
            np.random.SeedSequence([spec.seed, _EDGE_TAG, chunk])
        )
        src = _power_law_ranks(rng.random(m), n, spec.src_exponent)
        dst = _power_law_ranks(rng.random(m), n, spec.dst_exponent)
        # Rotate destination hubs away from source hubs, drop self-loops
        # by nudging (cheap, keeps the chunk size exact).
        dst = (dst + rotate) % n
        loops = src == dst
        if loops.any():
            dst[loops] = (dst[loops] + 1) % n
        yield src, dst


def _shard_rng(spec: ShardedSyntheticSpec, tag: int, shard: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, tag, shard]))


def label_shard(spec: ShardedSyntheticSpec, shard: int) -> np.ndarray:
    """Labels for one row shard (int64, deterministic per shard)."""
    row0, row1 = shard_row_range(spec, shard)
    rng = _shard_rng(spec, _LABEL_TAG, shard)
    return rng.integers(0, spec.num_classes, size=row1 - row0, dtype=np.int64)


def class_centers(spec: ShardedSyntheticSpec) -> np.ndarray:
    """The (num_classes, feat_dim) per-class feature means — tiny, drawn
    once from the base seed so every shard agrees on them."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _FEAT_TAG]))
    return (rng.standard_normal((spec.num_classes, spec.feat_dim))
            * spec.signal)


def feature_shard(spec: ShardedSyntheticSpec, shard: int,
                  labels: np.ndarray | None = None,
                  centers: np.ndarray | None = None) -> np.ndarray:
    """Features for one row shard: class-mean + noise, like
    :func:`_class_features` but never wider than the shard."""
    row0, row1 = shard_row_range(spec, shard)
    if labels is None:
        labels = label_shard(spec, shard)
    if centers is None:
        centers = class_centers(spec)
    rng = _shard_rng(spec, _FEAT_TAG, shard)
    noise = rng.standard_normal((row1 - row0, spec.feat_dim)) * 0.5
    return (centers[labels] + noise).astype(spec.feature_dtype, copy=False)


def mask_shards(spec: ShardedSyntheticSpec, shard: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train, val, test) boolean masks for one row shard."""
    row0, row1 = shard_row_range(spec, shard)
    rng = _shard_rng(spec, _MASK_TAG, shard)
    u = rng.random(row1 - row0)
    train = u < spec.train_fraction
    val = (~train) & (u < spec.train_fraction + spec.val_fraction)
    return train, val, ~(train | val)
