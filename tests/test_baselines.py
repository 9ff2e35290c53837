"""Tests for the baseline engines: support matrices, OOM/timeout
semantics, walk-simulation equivalence, and training correctness."""

import numpy as np
import pytest

from repro.baselines import (
    ENGINES,
    DGLEngine,
    DistDGLEngine,
    EulerEngine,
    FlexGraphAdapter,
    PreDGLEngine,
)
from repro.baselines.common import MemoryMeter, OutOfMemoryError, update
from repro.baselines.saga_nn import SAGANNLayer
from repro.baselines.sparse_engine import PyTorchEngine
from repro.baselines.walk_sim import propagation_random_walks, top_k_from_visits
from repro.datasets import load_dataset
from repro.graph import community_graph, top_k_visited
from repro.models import gcn
from repro.tensor import Tensor
from repro.tensor.scatter import peak_materialized_bytes


@pytest.fixture(scope="module")
def reddit():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture(scope="module")
def imdb():
    return load_dataset("imdb", scale="tiny")


class TestMemoryMeter:
    def test_charge_within_budget(self):
        meter = MemoryMeter(1000)
        with meter.hold((125,), np.float32):
            assert meter.current == 500 and meter.peak == 500

    def test_charge_over_budget_raises(self):
        meter = MemoryMeter(1000)
        with pytest.raises(OutOfMemoryError, match="big tensor"):
            with meter.hold((250,), np.float64, "big tensor"):
                raise AssertionError("the body ran past the budget")

    def test_release_and_peak(self):
        meter = MemoryMeter(None)
        with meter.hold((100,), np.uint8):
            pass
        with meter.hold((50,), np.uint8):
            assert meter.current == 50 and meter.peak == 100
        assert meter.current == 0

    def test_unlimited_budget_never_raises(self):
        with MemoryMeter(None).hold((10**6, 10**6), np.float64):
            pass

    def test_negative_charge_raises(self):
        with pytest.raises(ValueError):
            with MemoryMeter(None).hold((-1, 4), np.float32):
                pass

    def test_released_on_exit_also_after_an_exception(self):
        meter = MemoryMeter(None)
        with pytest.raises(RuntimeError):
            with meter.hold((4, 8), np.float32):
                assert meter.current == 128
                raise RuntimeError("the body failed")
        assert meter.current == 0 and meter.peak == 128

    def test_reset_starts_a_new_peak(self):
        meter = MemoryMeter(None)
        with meter.hold((100,), np.uint8):
            pass
        meter.reset()
        with meter.hold((50,), np.uint8):
            pass
        assert meter.peak == 50


class TestSupportMatrix:
    """Table 2's "X" cells: which abstraction can express which model."""

    @pytest.mark.parametrize("engine,expected", [
        ("pytorch", {"gcn", "pinsage", "magnn"}),
        ("dgl", {"gcn", "pinsage"}),
        ("distdgl", {"gcn", "pinsage"}),
        ("euler", {"gcn", "pinsage"}),
        ("pre+dgl", {"pinsage", "magnn"}),
        ("flexgraph", {"gcn", "pinsage", "magnn"}),
    ])
    def test_supported_models(self, engine, expected):
        assert set(ENGINES[engine].supported_models) == expected

    def test_unsupported_reports_x_cell(self, reddit):
        eng = DGLEngine(reddit, "magnn")
        report = eng.run_epoch()
        assert report.status == "unsupported"
        assert report.cell == "X"

    def test_unknown_model_raises(self, reddit):
        with pytest.raises(ValueError):
            DGLEngine(reddit, "transformer")


class TestEpochReports:
    def test_ok_cell_format(self, reddit):
        rep = FlexGraphAdapter(reddit, "gcn", hidden_dim=8).run_epoch()
        assert rep.status == "ok"
        assert float(rep.cell) >= 0

    def test_oom_cell(self, reddit):
        eng = PyTorchEngine(reddit, "gcn", hidden_dim=8, memory_budget=1000)
        rep = eng.run_epoch()
        assert rep.status == "oom"
        assert rep.cell == "OOM"

    def test_timeout_cell(self, reddit):
        eng = DistDGLEngine(reddit, "gcn", hidden_dim=8, time_limit=1e-9,
                            batch_size=16, max_batches=1)
        rep = eng.run_epoch()
        assert rep.status == "timeout"
        assert rep.cell.startswith(">")

    def test_extrapolated_flag(self, reddit):
        eng = DistDGLEngine(reddit, "gcn", hidden_dim=8, batch_size=16, max_batches=1)
        rep = eng.run_epoch()
        assert rep.extrapolated
        assert rep.cell.startswith("~")


class TestWalkSimulation:
    def test_propagation_walks_visit_real_neighbors(self):
        g = community_graph(100, 2, 8, seed=0)
        meter = MemoryMeter(None)
        roots, visited = propagation_random_walks(
            g, 3, 2, np.random.default_rng(0), meter
        )
        assert roots.size == visited.size == 100 * 3 * 2

    def test_propagation_charges_memory(self):
        g = community_graph(50, 2, 6, seed=0)
        meter = MemoryMeter(None)
        propagation_random_walks(g, 2, 2, np.random.default_rng(0), meter, edge_temporaries=2)
        assert meter.peak == g.num_edges * 8 * 2

    def test_top_k_statistics_match_graph_engine(self):
        """Both walk implementations draw from the same distribution: the
        *sets* of frequently-visited vertices should overlap heavily."""
        g = community_graph(60, 2, 10, seed=1)
        meter = MemoryMeter(None)
        roots_a, visits_a = propagation_random_walks(
            g, 40, 3, np.random.default_rng(0), meter
        )
        oa, na, wa = top_k_from_visits(roots_a, visits_a, g.num_vertices, 10)
        ob, nb, wb = top_k_visited(
            g, np.arange(g.num_vertices), 40, 3, 10, np.random.default_rng(1)
        )
        # Compare neighbor sets of vertex 0.
        set_a = set(na[oa == 0].tolist())
        set_b = set(nb[ob == 0].tolist())
        overlap = len(set_a & set_b) / max(1, min(len(set_a), len(set_b)))
        assert overlap > 0.3

    def test_top_k_from_visits_weights_normalized(self):
        roots = np.array([0, 0, 0, 1, 1])
        visits = np.array([1, 1, 2, 0, 2])
        o, n, w = top_k_from_visits(roots, visits, 3, 2)
        for v in np.unique(o):
            np.testing.assert_allclose(w[o == v].sum(), 1.0)

    def test_top_k_excludes_self_visits(self):
        roots = np.array([0, 0])
        visits = np.array([0, 1])  # first visit is the root itself
        o, n, _ = top_k_from_visits(roots, visits, 2, 5)
        assert n.tolist() == [1]


class TestSAGANN:
    def test_stages_compose_to_gcn_layer(self, reddit):
        model = gcn(reddit.feat_dim, 8, reddit.num_classes)
        layer = model.layers[0]

        class L(SAGANNLayer):
            def apply_vertex(self, feats, agg):
                return update(layer, feats, agg)

        dst, src = reddit.graph.coo()
        h = Tensor(reddit.features)
        out = L().run(h, src, dst, reddit.graph.num_vertices)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        np.testing.assert_allclose(out.data, layer.forward(h, hdg).data,
                                   rtol=1e-5, atol=1e-3)

    def test_apply_vertex_abstract(self):
        with pytest.raises(NotImplementedError):
            SAGANNLayer().apply_vertex(None, None)


class TestEnginesTrain:
    @pytest.mark.parametrize("engine_name", ["pytorch", "dgl", "euler", "flexgraph"])
    def test_loss_decreases_on_gcn_or_pinsage(self, reddit, engine_name):
        model = "pinsage" if engine_name == "euler" else "gcn"
        eng = ENGINES[engine_name](reddit, model, hidden_dim=16)
        losses = [eng.run_epoch(e).loss for e in range(4)]
        assert losses[-1] < losses[0]

    def test_pytorch_magnn_trains_on_imdb(self, imdb):
        eng = PyTorchEngine(imdb, "magnn", hidden_dim=8, max_instances_per_root=10)
        rep = eng.run_epoch()
        assert rep.status == "ok"
        assert np.isfinite(rep.loss)

    def test_predgl_magnn_precompute_excluded_from_epoch(self, imdb):
        eng = PreDGLEngine(imdb, "magnn", hidden_dim=8, max_instances_per_root=10)
        assert eng.precompute_seconds > 0
        rep = eng.run_epoch()
        assert rep.status == "ok"

    def test_predgl_pinsage_neighbors_capped(self, reddit):
        eng = PreDGLEngine(reddit, "pinsage", hidden_dim=8)
        rep = eng.run_epoch()
        assert rep.status == "ok"

    def test_distdgl_pinsage_equals_dgl_path(self, reddit):
        """The paper observes DistDGL == DGL on PinSage (same impl)."""
        a = DGLEngine(reddit, "pinsage", hidden_dim=8, seed=3).run_epoch()
        b = DistDGLEngine(reddit, "pinsage", hidden_dim=8, seed=3).run_epoch()
        assert a.loss == pytest.approx(b.loss, rel=1e-9)

    def test_flexgraph_memory_is_counted(self, reddit):
        """FlexGraph's column is the tensor layer's counted per-edge peak:
        SA materializes messages, a budget below them is an OOM cell, and
        HA-GCN's fused aggregation builds none."""
        sa = FlexGraphAdapter(reddit, "gcn", hidden_dim=8, strategy="sa")
        rep = sa.run_epoch()
        assert rep.peak_memory_mb > 0
        assert rep.peak_memory_mb == peak_materialized_bytes() / 1e6
        tiny = FlexGraphAdapter(reddit, "gcn", hidden_dim=8, strategy="sa",
                                memory_budget=1_000)
        assert tiny.run_epoch().status == "oom"
        assert FlexGraphAdapter(reddit, "gcn", hidden_dim=8).run_epoch().peak_memory_mb == 0

    def test_euler_gcn_oom_with_small_budget(self, reddit):
        eng = EulerEngine(reddit, "gcn", hidden_dim=8, memory_budget=100_000,
                          batch_size=64, max_batches=1)
        assert eng.run_epoch().status == "oom"

    def test_peak_memory_reported(self, reddit):
        eng = PyTorchEngine(reddit, "gcn", hidden_dim=8)
        rep = eng.run_epoch()
        assert rep.peak_memory_mb > 0


class TestOneModel:
    """Every engine trains the ``repro.models`` model FlexGraph trains;
    only NeighborSelection and Aggregation differ, so the losses agree.

    Measured on tiny reddit / imdb, hidden 16, seed 0, epochs 0-2: GCN
    under pytorch, dgl and neugraph within 7.9e-8 relative of FlexGraph
    (one float32 ulp of a loss near 3084: the baselines project ``h`` and
    the aggregate separately), MAGNN under pytorch and pre+dgl equal to
    it.  The bound, 1e-6 relative, is eight float32 ulps."""

    RTOL = 1e-6

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_every_engine_builds_flexgraphs_model(self, reddit, imdb, engine):
        for model_name in ENGINES[engine].supported_models:
            ds = imdb if model_name == "magnn" else reddit
            built = ENGINES[engine](ds, model_name, hidden_dim=8).model
            assert type(built) is type(FlexGraphAdapter(ds, model_name, hidden_dim=8).model)

    @staticmethod
    def _losses(engine, ds, model_name):
        eng = ENGINES[engine](ds, model_name, hidden_dim=16, seed=0)
        return [eng.run_epoch(epoch).loss for epoch in range(3)]

    @pytest.mark.parametrize("engine", ["pytorch", "dgl", "neugraph"])
    def test_gcn_losses_equal_flexgraphs(self, reddit, engine):
        np.testing.assert_allclose(self._losses(engine, reddit, "gcn"),
                                   self._losses("flexgraph", reddit, "gcn"),
                                   rtol=self.RTOL)

    @pytest.mark.parametrize("engine", ["pytorch", "pre+dgl"])
    def test_magnn_losses_equal_flexgraphs(self, imdb, engine):
        """Uncapped MAGNN: one set of attention vectors across engines."""
        np.testing.assert_allclose(self._losses(engine, imdb, "magnn"),
                                   self._losses("flexgraph", imdb, "magnn"),
                                   rtol=self.RTOL)
