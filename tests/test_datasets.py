"""Tests for the dataset generators and registry."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    fb91_like,
    imdb_like,
    load_dataset,
    reddit_like,
    twitter_like,
)
from repro.datasets.registry import DATASET_NAMES


class TestRegistry:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_all_names_load(self, name):
        ds = load_dataset(name, scale="tiny")
        assert ds.graph.num_vertices > 0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("citeseer")

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            load_dataset("reddit", scale="galactic")

    def test_scales_order_sizes(self):
        tiny = load_dataset("fb91", "tiny")
        small = load_dataset("fb91", "small")
        assert tiny.graph.num_vertices < small.graph.num_vertices

    def test_seed_override_changes_graph(self):
        a = load_dataset("reddit", "tiny", seed=1)
        b = load_dataset("reddit", "tiny", seed=2)
        assert a.graph.num_edges != b.graph.num_edges or not np.array_equal(
            a.features, b.features
        )


class TestDatasetIntegrity:
    @pytest.mark.parametrize("factory", [reddit_like, fb91_like, twitter_like, imdb_like])
    def test_shapes_consistent(self, factory):
        ds = factory()
        n = ds.graph.num_vertices
        assert ds.features.shape[0] == n
        assert ds.labels.shape == (n,)
        assert ds.train_mask.shape == (n,)

    @pytest.mark.parametrize("factory", [reddit_like, fb91_like, twitter_like, imdb_like])
    def test_masks_disjoint_and_cover(self, factory):
        ds = factory()
        overlap = ds.train_mask & ds.val_mask | ds.train_mask & ds.test_mask | ds.val_mask & ds.test_mask
        assert not overlap.any()
        assert (ds.train_mask | ds.val_mask | ds.test_mask).all()

    def test_labels_in_range(self):
        ds = reddit_like(num_vertices=300)
        assert ds.labels.min() >= 0
        assert ds.labels.max() < ds.num_classes

    def test_reddit_labels_follow_communities(self):
        ds = reddit_like(num_vertices=500)
        src, dst = ds.graph.edges()
        same_label = (ds.labels[src] == ds.labels[dst]).mean()
        assert same_label > 0.5  # homophily from the community structure

    def test_homogeneous_datasets_carry_three_types(self):
        # Needed so MAGNN can run on them, as in the paper's setup.
        for factory in (reddit_like, fb91_like, twitter_like):
            assert factory().graph.num_types == 3

    def test_imdb_types(self):
        ds = imdb_like(num_movies=50, num_directors=10, num_actors=30)
        assert ds.graph.type_names == ["movie", "director", "actor"]

    def test_features_carry_class_signal(self):
        ds = reddit_like(num_vertices=400)
        # Class centroids should be farther apart than the noise floor.
        centroids = np.stack([
            ds.features[ds.labels == c].mean(axis=0) for c in range(ds.num_classes)
        ])
        spread = np.linalg.norm(centroids - centroids.mean(axis=0), axis=1).mean()
        assert spread > 0.5

    def test_repr(self):
        assert "reddit-like" in repr(reddit_like(num_vertices=100))


class TestPinnedGraphs:
    """Every generator's graph, pinned bitwise: the fingerprint (the
    sorted edge multiset) and a SHA-256 over the CSR and CSC arrays (the
    edge order inside each row too).  A change to how the graph groups
    edges must leave both as they are."""

    @staticmethod
    def _adjacency_digest(graph):
        h = hashlib.sha256()
        for arr in (*graph.csr, *graph.csc):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("name, make, fingerprint, adjacency", [
        ("reddit_like(2_000)", lambda: reddit_like(2_000),
         "7e4dc3583298c64c", "5a0154bdb085e27e"),
        ("fb91_like(1_000)", lambda: fb91_like(1_000),
         "ac79a14e75330cdc", "b995daa8ad501265"),
        ("twitter_like(1_000)", lambda: twitter_like(1_000),
         "44dba38fb7e5b310", "f437b0eb23e15b48"),
        ("imdb_like(60, 12, 40)", lambda: imdb_like(60, 12, 40),
         "e96a8881051835ca", "2d454af9caa243fd"),
    ])
    def test_generated_graph_is_pinned(self, name, make, fingerprint,
                                       adjacency):
        graph = make().graph
        assert graph.fingerprint() == fingerprint, name
        assert self._adjacency_digest(graph) == adjacency, name
