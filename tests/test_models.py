"""Tests for the NAU model programs: shapes, categories, learning, and
pinned parameter and loss digests."""

import hashlib

import numpy as np
import pytest

from repro.core import FlexGraphEngine, SelectionScope
from repro.datasets import imdb_like, load_dataset, reddit_like
from repro.graph import community_graph
from repro.models import (
    MAGNN,
    default_metapaths,
    gat,
    gcn,
    gin,
    graphsage,
    jknet,
    magnn,
    pgnn,
    pinsage,
)
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def reddit():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture(scope="module")
def imdb():
    return load_dataset("imdb", scale="tiny")


def run_epochs(model, ds, epochs=5):
    eng = FlexGraphEngine(model, ds.graph)
    opt = Adam(model.parameters(), lr=0.01)
    history = eng.fit(Tensor(ds.features), ds.labels, opt, epochs, mask=ds.train_mask)
    return eng, history


class TestFactories:
    def test_gcn_dims(self):
        m = gcn(10, 16, 3, num_layers=3)
        assert m.num_layers == 3
        assert m.layers[0].output_dim == 16
        assert m.layers[-1].output_dim == 3

    def test_invalid_num_layers(self):
        for factory in (gcn, gin, pinsage, jknet, pgnn):
            with pytest.raises(ValueError):
                factory(4, 4, 2, num_layers=0)

    def test_magnn_needs_metapaths(self):
        with pytest.raises(ValueError):
            MAGNN([4, 2], [])

    def test_magnn_builder_keeps_an_empty_metapath_list(self):
        # Only a missing list means "the defaults"; an empty one is
        # refused like MAGNN([4, 2], []) refuses it.
        assert len(magnn(4, 4, 2).metapaths) == len(default_metapaths())
        with pytest.raises(ValueError, match="at least one metapath"):
            magnn(4, 4, 2, metapaths=[])

    def test_categories(self):
        assert gcn(4, 4, 2).category == "DNFA"
        assert gin(4, 4, 2).category == "DNFA"
        assert pinsage(4, 4, 2).category == "INFA"
        assert magnn(4, 4, 2).category == "INHA"
        assert pgnn(4, 4, 2).category == "INHA"
        assert jknet(4, 4, 2).category == "INHA"

    def test_selection_scopes_match_paper(self):
        # GCN/MAGNN HDGs never change; PinSage's walks re-run per epoch.
        assert gcn(4, 4, 2).selection_scope is SelectionScope.STATIC
        assert magnn(4, 4, 2).selection_scope is SelectionScope.STATIC
        assert pinsage(4, 4, 2).selection_scope is SelectionScope.PER_EPOCH

    def test_default_metapaths_are_len3(self):
        mps = default_metapaths(3)
        assert len(mps) == 6
        assert all(mp.length == 3 for mp in mps)

    def test_default_metapaths_need_two_types(self):
        with pytest.raises(ValueError):
            default_metapaths(1)


class TestForwardShapes:
    @pytest.mark.parametrize("factory", [gcn, gin, pinsage, pgnn])
    def test_output_shape(self, reddit, factory):
        model = factory(reddit.feat_dim, 8, reddit.num_classes)
        eng = FlexGraphEngine(model, reddit.graph)
        out = eng.forward(Tensor(reddit.features))
        assert out.shape == (reddit.graph.num_vertices, reddit.num_classes)

    def test_magnn_output_shape(self, imdb):
        model = magnn(imdb.feat_dim, 8, imdb.num_classes)
        eng = FlexGraphEngine(model, imdb.graph)
        out = eng.forward(Tensor(imdb.features))
        assert out.shape == (imdb.graph.num_vertices, imdb.num_classes)

    def test_jknet_output_shape(self):
        # JK-Net's per-vertex BFS is slow; use a small graph.
        g = community_graph(60, 2, 6, seed=0)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((60, 5))
        model = jknet(5, 8, 3, max_distance=2)
        eng = FlexGraphEngine(model, g)
        out = eng.forward(Tensor(feats))
        assert out.shape == (60, 3)


class TestLearning:
    def test_gcn_learns(self, reddit):
        _, hist = run_epochs(gcn(reddit.feat_dim, 16, reddit.num_classes), reddit)
        assert hist[-1].loss < hist[0].loss

    def test_gin_learns(self, reddit):
        _, hist = run_epochs(gin(reddit.feat_dim, 16, reddit.num_classes), reddit)
        assert hist[-1].loss < hist[0].loss

    def test_pinsage_learns(self, reddit):
        _, hist = run_epochs(pinsage(reddit.feat_dim, 16, reddit.num_classes), reddit)
        assert hist[-1].loss < hist[0].loss

    def test_magnn_learns(self, imdb):
        _, hist = run_epochs(magnn(imdb.feat_dim, 16, imdb.num_classes), imdb, epochs=10)
        assert hist[-1].loss < hist[0].loss

    def test_pgnn_learns(self, reddit):
        _, hist = run_epochs(pgnn(reddit.feat_dim, 16, reddit.num_classes), reddit)
        assert hist[-1].loss < hist[0].loss

    def test_gcn_reaches_useful_accuracy(self, reddit):
        # Community features are separable; GCN should fit the train set.
        eng, _ = run_epochs(gcn(reddit.feat_dim, 32, reddit.num_classes), reddit, epochs=20)
        acc = eng.evaluate(Tensor(reddit.features), reddit.labels, reddit.test_mask)
        assert acc > 0.8


class TestModelSemantics:
    def test_pinsage_hdg_has_weights(self, reddit):
        model = pinsage(reddit.feat_dim, 8, reddit.num_classes)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        assert hdg.leaf_weights is not None
        assert hdg.depth == 1
        # Each vertex keeps at most top_k neighbors.
        assert np.diff(hdg.leaf_offsets).max() <= model.top_k

    def test_magnn_hdg_depth3(self, imdb):
        model = magnn(imdb.feat_dim, 8, imdb.num_classes)
        hdg = model.neighbor_selection(imdb.graph, np.random.default_rng(0))
        assert hdg.depth == 3
        assert hdg.schema.num_leaves == len(model.metapaths)

    def test_magnn_cap_respected(self, imdb):
        model = magnn(imdb.feat_dim, 8, imdb.num_classes, max_instances_per_root=2)
        hdg = model.neighbor_selection(imdb.graph, np.random.default_rng(0))
        assert hdg.instance_counts_per_type().max() <= 2

    def test_pgnn_anchor_sets_shared(self, reddit):
        model = pgnn(reddit.feat_dim, 8, reddit.num_classes,
                     num_anchor_sets=3, anchor_set_size=5)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        assert hdg.depth == 3
        counts = hdg.instance_counts_per_type()
        np.testing.assert_array_equal(counts, np.full_like(counts, 3))

    def test_jknet_rings_disjoint(self):
        g = community_graph(40, 2, 5, seed=2)
        model = jknet(4, 4, 2, max_distance=2)
        hdg = model.neighbor_selection(g, np.random.default_rng(0))
        assert hdg.schema.num_leaves == 2
        # For root 0: ring-1 and ring-2 leaves must not overlap.
        sub = hdg.restrict_to_roots(np.array([0]))
        i0 = sub.instance_offsets
        ring_members = []
        for slot in range(2):
            lo_i, hi_i = i0[slot], i0[slot + 1]
            lo, hi = sub.leaf_offsets[lo_i], sub.leaf_offsets[hi_i]
            ring_members.append(set(sub.leaf_vertices[lo:hi].tolist()))
        assert not (ring_members[0] & ring_members[1])

    def test_gin_eps_is_learnable(self, reddit):
        model = gin(reddit.feat_dim, 8, reddit.num_classes)
        names = [n for n, _ in model.named_parameters()]
        assert any("eps" in n for n in names)

    def test_pinsage_epoch_hdgs_differ(self, reddit):
        model = pinsage(reddit.feat_dim, 8, reddit.num_classes)
        eng = FlexGraphEngine(model, reddit.graph, seed=0)
        h1 = eng.hdg_for_layer(0, epoch=0)
        h2 = eng.hdg_for_layer(0, epoch=1)
        # Walks are stochastic: neighbor sets should differ across epochs.
        assert (
            h1.leaf_vertices.size != h2.leaf_vertices.size
            or not np.array_equal(h1.leaf_vertices, h2.leaf_vertices)
        )


class TestGraphSAGE:
    """SAGE-pool overrides the Aggregation stage itself (transform before
    reduce) — the NAU extension point beyond built-in UDFs."""

    def test_factory_and_category(self):
        from repro.models import graphsage

        model = graphsage(8, 16, 3)
        assert model.category == "DNFA"
        with pytest.raises(ValueError):
            graphsage(8, 16, 3, num_layers=0)

    def test_learns(self, reddit):
        from repro.models import graphsage

        _, hist = run_epochs(graphsage(reddit.feat_dim, 16, reddit.num_classes), reddit)
        assert hist[-1].loss < hist[0].loss

    def test_strategies_agree(self, reddit):
        from repro.models import graphsage

        model = graphsage(reddit.feat_dim, 8, reddit.num_classes, seed=2)
        outs = []
        for strategy in ("sa", "ha"):
            eng = FlexGraphEngine(model, reddit.graph, strategy=strategy)
            outs.append(eng.forward(Tensor(reddit.features)).numpy())
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-8)

    def test_rejects_hierarchical_hdg(self, imdb):
        from repro.core.selection import build_metapath_hdg
        from repro.models import default_metapaths
        from repro.models.sage import SAGELayer

        hdg = build_metapath_hdg(imdb.graph, default_metapaths(3)[:2])
        layer = SAGELayer(imdb.feat_dim, 8)
        with pytest.raises(ValueError):
            layer.aggregation(Tensor(imdb.features), hdg)

    def test_pool_transform_applied_before_reduce(self, reddit):
        """With a zero pool transform, the neighborhood term must be the
        ReLU'd zero vector for every vertex (not the raw feature max)."""
        from repro.models.sage import SAGELayer
        from repro.core.hdg import hdg_from_graph

        layer = SAGELayer(reddit.feat_dim, 4, pool_dim=4)
        layer.pool.weight.data[...] = 0.0
        layer.pool.bias.data[...] = 0.0
        hdg = hdg_from_graph(reddit.graph)
        agg = layer.aggregation(Tensor(reddit.features), hdg)
        np.testing.assert_allclose(agg.numpy(), 0.0)

    @pytest.mark.parametrize("strategy", ["sa", "sa+fa", "ha"])
    def test_shares_the_hdg_bottom_level_plan(self, reddit, strategy):
        """SAGE-pool reduces with the HDG's own bottom-level plan — the
        object GCN gets over the same HDG — and a second forward builds
        nothing (it used to keep a private duplicate and re-derive its
        COO index every call)."""
        from repro.core.hdg import hdg_from_graph
        from repro.models import gcn, graphsage
        from repro.tensor import get_plan_cache, no_grad

        hdg = hdg_from_graph(reddit.graph)
        feats = Tensor(reddit.features)
        sage = graphsage(reddit.feat_dim, 8, reddit.num_classes).layers[0]
        conv = gcn(reddit.feat_dim, 8, reddit.num_classes).layers[0]
        with no_grad():
            sage.forward(feats, hdg, strategy)
            builds = get_plan_cache().builds
            sage.forward(feats, hdg, strategy)
            conv.forward(feats, hdg, strategy)
        assert get_plan_cache().builds == builds
        assert hdg._plans.plans() == [hdg.plan(1, feats.shape[0])]


# ---------------------------------------------------------------------------
# Pinned digests: every built-in model trains bit for bit as pinned
# ---------------------------------------------------------------------------
#: name -> (dataset, builder): every built-in model, GCN with both
#: aggregators, MAGNN three layers deep
DIGEST_MODELS = {
    "gcn": ("reddit", lambda d: gcn(d.feat_dim, 16, d.num_classes)),
    "gcn_mean": ("reddit", lambda d: gcn(d.feat_dim, 16, d.num_classes,
                                         aggregator="mean")),
    "gat": ("reddit", lambda d: gat(d.feat_dim, 16, d.num_classes)),
    "gin": ("reddit", lambda d: gin(d.feat_dim, 16, d.num_classes)),
    "graphsage": ("reddit", lambda d: graphsage(d.feat_dim, 16, d.num_classes)),
    "pinsage": ("reddit", lambda d: pinsage(d.feat_dim, 16, d.num_classes)),
    "magnn": ("imdb", lambda d: magnn(d.feat_dim, 16, d.num_classes,
                                      num_layers=3)),
    "pgnn": ("reddit", lambda d: pgnn(d.feat_dim, 16, d.num_classes)),
    "jknet": ("reddit", lambda d: jknet(d.feat_dim, 16, d.num_classes)),
}
DIGEST_DATA = {"reddit": lambda: reddit_like(600),
               "imdb": lambda: imdb_like(60, 12, 40)}
STRATEGIES = ("sa", "sa+fa", "ha")


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def _params_digest(model) -> str:
    state = model.state_dict()
    return _digest(state[key] for key in sorted(state))


def model_digests(name):
    """``(keys, initial, {strategy: (losses, final)})`` of one built-in
    model: its sorted ``state_dict`` keys, the digest of its initial
    parameters, and per execution strategy the digests of three Adam
    epochs' losses and of the parameters they leave."""
    data, build = DIGEST_MODELS[name]
    ds = DIGEST_DATA[data]()
    model = build(ds)
    keys, initial = tuple(sorted(model.state_dict())), _params_digest(model)
    runs = {}
    for strategy in STRATEGIES:
        model = build(ds)
        engine = FlexGraphEngine(model, ds.graph, strategy=strategy, seed=0)
        optimizer = Adam(model.parameters(), lr=0.01)
        losses = [engine.train_epoch(Tensor(ds.features), ds.labels, optimizer,
                                     mask=ds.train_mask, epoch=epoch).loss
                  for epoch in range(3)]
        runs[strategy] = (_digest([np.asarray(losses, dtype=np.float64)]),
                          _params_digest(model))
    return keys, initial, runs


PINNED = {
    "gcn": (
        ("layer0.linear.bias", "layer0.linear.weight", "layer1.linear.bias",
         "layer1.linear.weight"),
        "2e2e6ec867475660",
        {"sa": ("57b3cc21a351cfaa", "11d44a5a815ba77c"),
         "sa+fa": ("57b3cc21a351cfaa", "11d44a5a815ba77c"),
         "ha": ("57b3cc21a351cfaa", "11d44a5a815ba77c")}),
    "gcn_mean": (
        ("layer0.linear.bias", "layer0.linear.weight", "layer1.linear.bias",
         "layer1.linear.weight"),
        "2e2e6ec867475660",
        {"sa": ("297ae2f40b3fea21", "af5b4c12a23da2e8"),
         "sa+fa": ("297ae2f40b3fea21", "af5b4c12a23da2e8"),
         "ha": ("297ae2f40b3fea21", "af5b4c12a23da2e8")}),
    "gat": (
        ("layer0._agg0.score_vector", "layer0.linear.bias",
         "layer0.linear.weight", "layer1._agg0.score_vector",
         "layer1.linear.bias", "layer1.linear.weight"),
        "3b79d707f71d3d94",
        {"sa": ("de463b11e2459a81", "6016752643a5030e"),
         "sa+fa": ("de463b11e2459a81", "c7373d110369fc8b"),
         "ha": ("de463b11e2459a81", "c7373d110369fc8b")}),
    "gin": (
        ("layer0.eps", "layer0.fc1.bias", "layer0.fc1.weight",
         "layer0.fc2.bias", "layer0.fc2.weight", "layer1.eps",
         "layer1.fc1.bias", "layer1.fc1.weight", "layer1.fc2.bias",
         "layer1.fc2.weight"),
        "34a82a2b2ba403e0",
        {"sa": ("94e00b7c01213739", "f141c4414963fa22"),
         "sa+fa": ("94e00b7c01213739", "f141c4414963fa22"),
         "ha": ("94e00b7c01213739", "f141c4414963fa22")}),
    "graphsage": (
        ("layer0.linear.bias", "layer0.linear.weight", "layer0.pool.bias",
         "layer0.pool.weight", "layer1.linear.bias", "layer1.linear.weight",
         "layer1.pool.bias", "layer1.pool.weight"),
        "dbd9249b73837500",
        {"sa": ("553c3500cf54e7c2", "dedaf62fa13f826b"),
         "sa+fa": ("553c3500cf54e7c2", "dedaf62fa13f826b"),
         "ha": ("553c3500cf54e7c2", "dedaf62fa13f826b")}),
    "pinsage": (
        ("layer0.linear.bias", "layer0.linear.weight", "layer1.linear.bias",
         "layer1.linear.weight"),
        "d172317737bfd714",
        {"sa": ("27b56931a68d3d78", "6e0bd0382d36645b"),
         "sa+fa": ("27b56931a68d3d78", "6e0bd0382d36645b"),
         "ha": ("27b56931a68d3d78", "6e0bd0382d36645b")}),
    "magnn": (
        ("layer0._agg1.score_vector", "layer0.linear.bias",
         "layer0.linear.weight", "layer1._agg1.score_vector",
         "layer1.linear.bias", "layer1.linear.weight",
         "layer2._agg1.score_vector", "layer2.linear.bias",
         "layer2.linear.weight"),
        "03e660496436024b",
        {"sa": ("60f49e2ac9716ad3", "2f76daf62544b54f"),
         "sa+fa": ("60f49e2ac9716ad3", "2f76daf62544b54f"),
         "ha": ("60f49e2ac9716ad3", "e2adb41a746f990a")}),
    "pgnn": (
        ("layer0.linear.bias", "layer0.linear.weight", "layer1.linear.bias",
         "layer1.linear.weight"),
        "d172317737bfd714",
        {"sa": ("9dd493dd276c98dc", "7da39e9a216dc2ae"),
         "sa+fa": ("9dd493dd276c98dc", "7da39e9a216dc2ae"),
         "ha": ("9dd493dd276c98dc", "7da39e9a216dc2ae")}),
    "jknet": (
        ("layer0.linear.bias", "layer0.linear.weight", "layer1.linear.bias",
         "layer1.linear.weight"),
        "2e2e6ec867475660",
        {"sa": ("2b63e1c969943776", "0a19d734536bdead"),
         "sa+fa": ("2b63e1c969943776", "0a19d734536bdead"),
         "ha": ("2b63e1c969943776", "0a19d734536bdead")}),
}


@pytest.mark.parametrize("name", sorted(DIGEST_MODELS))
def test_model_trains_bit_for_bit_as_pinned(name):
    """Parameter names, initial draws, losses and trained parameters of
    every built-in model under SA, SA+FA and HA, pinned as SHA-256
    prefixes of the float32 bits.  A refactor of the model code must
    leave all of them unchanged; a change meant to alter the numbers
    re-pins the table and says why."""
    assert model_digests(name) == PINNED[name]
