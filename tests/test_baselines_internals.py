"""Deeper tests of baseline-engine internals: block expansion, memory
projections, report rendering, engine-specific behaviours."""

import numpy as np
import pytest

from repro.baselines import (
    DGLEngine,
    DistDGLEngine,
    EpochReport,
    EulerEngine,
    PreDGLEngine,
)
from repro.baselines.sparse_engine import PyTorchEngine
from repro.baselines.saga_nn import DistDGLEngine as _DistDGL
from repro.datasets import load_dataset
from repro.graph import k_hop_neighbors


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale="tiny")


class TestEpochReportCells:
    def test_ok_cell(self):
        rep = EpochReport("e", "gcn", "d", seconds=1.234)
        assert rep.cell == "1.234"

    def test_extrapolated_cell(self):
        rep = EpochReport("e", "gcn", "d", seconds=2.0, extrapolated=True)
        assert rep.cell == "~2.000"

    def test_timeout_cell(self):
        rep = EpochReport("e", "gcn", "d", seconds=60.0, status="timeout")
        assert rep.cell == ">60"

    def test_oom_and_x(self):
        assert EpochReport("e", "m", "d", 0.0, status="oom").cell == "OOM"
        assert EpochReport("e", "m", "d", 0.0, status="unsupported").cell == "X"


class TestKHopExpansion:
    def test_matches_reference_bfs(self, ds):
        seeds = np.array([0, 5, 9])
        block = _DistDGL._expand_k_hop(ds.graph, seeds, 2)
        # Reference: union of per-seed 2-hop in-neighborhoods + seeds.
        expected = set(seeds.tolist())
        for s in seeds:
            expected |= set(k_hop_neighbors(ds.graph, int(s), 2, "in").tolist())
        assert set(block.tolist()) == expected

    def test_zero_hops(self, ds):
        seeds = np.array([3, 3, 7])
        block = _DistDGL._expand_k_hop(ds.graph, seeds, 0)
        np.testing.assert_array_equal(block, [3, 7])

    def test_duplicated_size_at_least_union(self, ds):
        seeds = np.arange(10)
        dup = _DistDGL._duplicated_expansion_size(ds.graph, seeds, 2)
        union = _DistDGL._expand_k_hop(ds.graph, seeds, 2).size
        assert dup >= union - seeds.size

    def test_duplicated_size_formula(self):
        # Star: center 0 with in-edges from 1..4; seed = 0.
        from repro.graph import Graph

        g = Graph.from_edges(5, [[i, 0] for i in range(1, 5)])
        dup = _DistDGL._duplicated_expansion_size(g, np.array([0]), 2)
        # 1-hop: 4 in-neighbors; 2-hop: each neighbor has 0 in-neighbors.
        assert dup == 4


class TestEngineBehaviours:
    def test_pytorch_gcn_charges_two_edge_tensors(self, ds):
        engine = PyTorchEngine(ds, "gcn", hidden_dim=8)
        engine.run_epoch(0)
        # Peak >= 2 edge tensors of the first layer, in the compute dtype.
        itemsize = engine.feats.dtype.itemsize
        expected = 2 * ds.graph.num_edges * ds.feat_dim * itemsize
        assert engine.memory.peak >= expected

    def test_dgl_gcn_charges_single_edge_view(self, ds):
        engine = DGLEngine(ds, "gcn", hidden_dim=8)
        engine.run_epoch(0)
        one_tensor = ds.graph.num_edges * ds.feat_dim * engine.feats.dtype.itemsize
        assert one_tensor <= engine.memory.peak < 2 * one_tensor

    def test_pytorch_pinsage_walk_memory_scales_with_edges(self, ds):
        engine = PyTorchEngine(ds, "pinsage", hidden_dim=8)
        engine.run_epoch(0)
        # Walk simulation materializes two float64-key-per-edge temporaries.
        itemsize = np.dtype(np.float64).itemsize
        assert engine.memory.peak >= ds.graph.num_edges * itemsize * 2

    def test_euler_uses_fast_walks_not_propagation(self, ds, monkeypatch):
        """Euler's sampling engine must not pay the O(E)-per-hop walk
        simulation DGL-family engines use."""
        import repro.baselines.saga_nn as saga_nn

        def boom(*_args, **_kwargs):
            raise AssertionError("propagation walk simulation invoked")

        monkeypatch.setattr(saga_nn, "propagation_random_walks", boom)
        # Euler: fine (fast sampling kernel).
        euler = EulerEngine(ds, "pinsage", hidden_dim=8)
        assert euler.run_epoch(0).status == "ok"
        # DGL: must hit the patched simulation.
        dgl = DGLEngine(ds, "pinsage", hidden_dim=8)
        with pytest.raises(AssertionError):
            dgl._run_epoch(0)

    def test_predgl_oversamples_candidates(self, ds):
        engine = PreDGLEngine(ds, "pinsage", hidden_dim=8, oversample=4)
        per_root = np.diff(engine._cand_offsets)
        # Candidate lists exceed the runtime top-k for most roots.
        assert (per_root > 10).mean() > 0.5

    def test_predgl_epoch_weights_normalized(self, ds):
        engine = PreDGLEngine(ds, "pinsage", hidden_dim=8)
        rep = engine.run_epoch(0)
        assert rep.status == "ok"

    def test_magnn_oom_raised_before_matching(self, monkeypatch):
        """The OOM projection must trigger without paying for the DFS:
        with a tiny budget the metapath matcher is never reached."""
        from repro.baselines import sparse_engine

        def matcher_called(*_args, **_kwargs):
            raise AssertionError("metapath matching ran before the OOM check")

        monkeypatch.setattr(sparse_engine, "select_metapath_neighbors",
                            matcher_called)
        ds = load_dataset("twitter", scale="small")
        engine = PyTorchEngine(ds, "magnn", hidden_dim=8, memory_budget=1_000_000)
        assert engine.run_epoch(0).status == "oom"

    def test_time_limit_none_never_times_out(self, ds):
        engine = DistDGLEngine(ds, "gcn", hidden_dim=8, time_limit=None,
                               batch_size=64, max_batches=1)
        assert engine.run_epoch(0).status == "ok"

    def test_seeded_engines_are_deterministic(self, ds):
        losses = []
        for _ in range(2):
            engine = DGLEngine(ds, "gcn", hidden_dim=8, seed=5)
            losses.append(engine.run_epoch(0).loss)
        assert losses[0] == pytest.approx(losses[1], rel=1e-12)


class TestNeuGraphEngine:
    """The §8 chunked whole-graph strategy (extension engine)."""

    def test_math_matches_dgl(self, ds):
        from repro.baselines import NeuGraphEngine

        ng = NeuGraphEngine(ds, "gcn", hidden_dim=8, seed=3, num_chunks=3)
        dgl = DGLEngine(ds, "gcn", hidden_dim=8, seed=3)
        # Chunking only regroups each vertex's in-neighbor sum: in float32
        # that moves a loss by at most (max in-degree) * eps32 relative.
        max_degree = int(np.diff(ds.graph.csc[0]).max())
        bound = max_degree * float(np.finfo(np.float32).eps)
        for epoch in range(2):
            a = ng.run_epoch(epoch).loss
            b = dgl.run_epoch(epoch).loss
            assert a == pytest.approx(b, rel=bound)

    def test_peak_memory_bounded_by_chunking(self, ds):
        from repro.baselines import NeuGraphEngine

        peaks = {}
        for chunks in (1, 4):
            engine = NeuGraphEngine(ds, "gcn", hidden_dim=8, num_chunks=chunks)
            engine.run_epoch(0)
            peaks[chunks] = engine.memory.peak
        assert peaks[4] < peaks[1] / 2

    def test_only_dnfa_supported(self, ds):
        from repro.baselines import NeuGraphEngine

        assert NeuGraphEngine(ds, "pinsage").run_epoch().status == "unsupported"
        assert NeuGraphEngine(ds, "magnn").run_epoch().status == "unsupported"

    def test_invalid_chunks(self, ds):
        from repro.baselines import NeuGraphEngine

        with pytest.raises(ValueError):
            NeuGraphEngine(ds, "gcn", num_chunks=0)

    def test_every_edge_in_exactly_one_chunk(self, ds):
        from repro.baselines import NeuGraphEngine

        engine = NeuGraphEngine(ds, "gcn", hidden_dim=8, num_chunks=5)
        assert engine._chunk_offsets[-1] == ds.graph.num_edges
