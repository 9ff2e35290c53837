"""The global correctness invariant, swept over every model: the three
execution strategies of §4.2 compute the same function, on both the
single-machine engine and per-worker slices."""

import numpy as np
import pytest

from repro.core import FlexGraphEngine
from repro.datasets import load_dataset
from repro.graph import hash_partition
from repro.models import gat, gcn, gin, graphsage, magnn, pgnn, pinsage
from repro.tensor import Tensor

STRATEGIES = ("sa", "sa+fa", "ha")


@pytest.fixture(scope="module")
def reddit():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture(scope="module")
def imdb():
    return load_dataset("imdb", scale="tiny")


MODEL_FACTORIES = {
    "gcn": lambda ds: gcn(ds.feat_dim, 8, ds.num_classes, seed=11),
    "gin": lambda ds: gin(ds.feat_dim, 8, ds.num_classes, seed=11),
    "gat": lambda ds: gat(ds.feat_dim, 8, ds.num_classes, seed=11),
    "graphsage": lambda ds: graphsage(ds.feat_dim, 8, ds.num_classes, seed=11),
    "pinsage": lambda ds: pinsage(ds.feat_dim, 8, ds.num_classes, seed=11,
                                  selection="ppr"),
    "pgnn": lambda ds: pgnn(ds.feat_dim, 8, ds.num_classes, seed=11),
}


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_strategies_compute_same_function(reddit, name):
    model = MODEL_FACTORIES[name](reddit)
    feats = Tensor(reddit.features)
    outputs = []
    for strategy in STRATEGIES:
        engine = FlexGraphEngine(model, reddit.graph, strategy=strategy, seed=0)
        outputs.append(engine.forward(feats).numpy())
    np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(outputs[0], outputs[2], rtol=1e-7, atol=1e-9)


def test_magnn_strategies_compute_same_function(imdb):
    model = magnn(imdb.feat_dim, 8, imdb.num_classes, seed=11)
    feats = Tensor(imdb.features)
    outputs = []
    for strategy in STRATEGIES:
        engine = FlexGraphEngine(model, imdb.graph, strategy=strategy, seed=0)
        outputs.append(engine.forward(feats).numpy())
    np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-7, atol=1e-9)
    np.testing.assert_allclose(outputs[0], outputs[2], rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("name", ["gcn", "gat", "graphsage", "pinsage"])
def test_worker_slices_compose_to_global_forward(reddit, name):
    """Aggregating per-worker root slices and reassembling equals the
    global forward — the §5 shared-nothing decomposition, per model."""
    model = MODEL_FACTORIES[name](reddit)
    feats = Tensor(reddit.features)
    engine = FlexGraphEngine(model, reddit.graph, seed=0)
    expected = engine.forward(feats).numpy()

    hdg = engine.hdg_for_layer(0)
    labels = hash_partition(reddit.graph.num_vertices, 3)
    h = feats
    for i, layer in enumerate(model.layers):
        layer_hdg = engine.hdg_for_layer(i)
        pieces = np.zeros((reddit.graph.num_vertices, layer.output_dim),
                          dtype=h.dtype)
        for w in range(3):
            owned = np.flatnonzero(labels == w)
            sub = layer_hdg.restrict_to_roots(owned)
            nbr = layer.aggregation(h, sub, engine.strategy)
            pieces[owned] = layer.update(h[owned], nbr).numpy()
        h = Tensor(pieces)
    # A slice has fewer rows than the graph, so a declared linear Update
    # may reduce before projecting where the global forward projected
    # first: each neighbor sum is reordered, which in float32 moves an
    # output by at most (max in-degree) * eps32 of the largest one.
    max_degree = int(np.diff(reddit.graph.csc[0]).max())
    bound = max_degree * float(np.finfo(np.float32).eps)
    err = np.abs(h.numpy() - expected).max() / np.abs(expected).max()
    assert err <= bound
