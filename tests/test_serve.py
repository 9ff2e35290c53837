"""Tests for repro.serve: sessions, micro-batching, the embedding cache,
load shedding, and serving/training numerical parity."""

import threading

import numpy as np
import pytest

from repro.core import FlexGraphEngine
from repro.core import build_block, build_seed_blocks
from repro.datasets import load_dataset
from repro.models import gcn, magnn, pinsage
from repro.serve import (
    CheckpointMismatch,
    EmbeddingCache,
    GNNServer,
    InferenceSession,
    MicroBatcher,
    ServerOverloaded,
)
from repro.serve import session as session_module
from repro.serve.cache import expand_affected
from repro.storage import checkpoint_metadata, save_checkpoint
from repro.tensor import Adam, Tensor


@pytest.fixture(scope="module")
def reddit():
    return load_dataset("reddit", scale="tiny")


@pytest.fixture(scope="module")
def imdb():
    return load_dataset("imdb", scale="tiny")


def assert_reordered_close(got, expected, graph):
    """Rows from blocks whose neighbor sums ran in another order than the
    full-graph forward's (a small block reduces before projecting, the
    whole graph projects first): in float32 each sum of at most (max
    in-degree) terms moves by that many eps32 of the largest entry."""
    max_degree = int(np.diff(graph.csc[0]).max())
    bound = max_degree * float(np.finfo(np.float32).eps) * np.abs(expected).max()
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= bound


def trained(factory, ds, epochs=2, seed=0, **kwargs):
    model = factory(ds.feat_dim, 8, ds.num_classes, seed=seed, **kwargs)
    engine = FlexGraphEngine(model, ds.graph, seed=seed)
    optimizer = Adam(model.parameters(), lr=0.01)
    engine.fit(Tensor(ds.features), ds.labels, optimizer, epochs,
               mask=ds.train_mask)
    return model, engine


# ---------------------------------------------------------------------------
# Shared block construction (generalized out of MiniBatchTrainer)
# ---------------------------------------------------------------------------
class TestSeedBlocks:
    def test_build_block_restricts_to_seeds(self, reddit):
        model = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        seeds = np.array([3, 1, 7])
        block = build_block(hdg, seeds)
        np.testing.assert_array_equal(block.roots, hdg.roots[seeds])
        # Full neighborhoods: per-root leaf lists match the model HDG's.
        for order, seed in enumerate(seeds):
            lo, hi = block.leaf_offsets[order], block.leaf_offsets[order + 1]
            slo, shi = hdg.leaf_offsets[seed], hdg.leaf_offsets[seed + 1]
            np.testing.assert_array_equal(
                np.sort(block.leaf_vertices[lo:hi]),
                np.sort(hdg.leaf_vertices[slo:shi]),
            )

    def test_build_block_fanout_bounds_leaves(self, reddit):
        model = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        seeds = np.arange(10)
        block = build_block(hdg, seeds, fanout=2,
                            rng=np.random.default_rng(1))
        assert np.diff(block.leaf_offsets).max() <= 2

    def test_build_seed_blocks_layering(self, reddit):
        model = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        seeds = np.array([5, 11])
        blocks = build_seed_blocks(hdg, seeds, [None, None])
        assert len(blocks) == 2
        # Input-layer-first: the last block's outputs are the seeds, and
        # each earlier block's outputs cover the next block's inputs.
        _, out_last = blocks[-1]
        np.testing.assert_array_equal(np.sort(out_last), np.sort(seeds))
        inner_block, inner_out = blocks[0]
        need = np.union1d(seeds, blocks[-1][0].leaf_vertices)
        np.testing.assert_array_equal(np.sort(inner_out), np.sort(need))


# ---------------------------------------------------------------------------
# Session / server parity with full-graph inference
# ---------------------------------------------------------------------------
class TestServingParity:
    @pytest.mark.parametrize("factory,dsname", [
        (gcn, "reddit"), (magnn, "imdb"),
    ])
    def test_session_matches_engine(self, factory, dsname, request):
        ds = request.getfixturevalue(dsname)
        kwargs = {"max_instances_per_root": 30} if factory is magnn else {}
        model, engine = trained(factory, ds, **kwargs)
        feats = Tensor(ds.features)
        full_embed = engine.embed(feats)
        full_pred = engine.predict(feats)

        session = InferenceSession(model, ds.graph, ds.features, seed=0)
        seeds = np.arange(ds.graph.num_vertices)
        np.testing.assert_allclose(session.embed(seeds), full_embed, atol=1e-6)
        np.testing.assert_array_equal(session.predict(seeds), full_pred)
        # Second pass is served from the warm cache and stays exact.
        assert session.embed_cache.hits > 0 or ds.graph.num_vertices == 0
        np.testing.assert_allclose(session.embed(seeds), full_embed, atol=1e-6)

    def test_pinsage_parity_with_pinned_hdg(self, reddit):
        # PER_EPOCH stochastic selection: pin the engine's drawn HDG so
        # serving answers over the same neighborhoods.
        model, engine = trained(pinsage, reddit)
        feats = Tensor(reddit.features)
        full = engine.embed(feats)
        session = InferenceSession(model, reddit.graph, reddit.features,
                                   hdg=engine.hdgs.model_hdg, seed=0)
        seeds = np.arange(reddit.graph.num_vertices)
        np.testing.assert_allclose(session.embed(seeds), full, atol=1e-6)

    def test_subset_and_duplicate_seeds(self, reddit):
        model, engine = trained(gcn, reddit)
        full = engine.embed(Tensor(reddit.features))
        session = InferenceSession(model, reddit.graph, reddit.features)
        seeds = np.array([9, 3, 9, 0, 3])
        np.testing.assert_allclose(session.embed(seeds), full[seeds], atol=1e-6)
        np.testing.assert_array_equal(
            session.predict(seeds), full[seeds].argmax(axis=1)
        )

    def test_engine_vertices_argument(self, reddit):
        model, engine = trained(gcn, reddit)
        feats = Tensor(reddit.features)
        subset = np.array([1, 4, 6])
        np.testing.assert_allclose(
            engine.embed(feats, vertices=subset),
            engine.embed(feats)[subset],
        )
        np.testing.assert_array_equal(
            engine.predict(feats, vertices=subset),
            engine.predict(feats)[subset],
        )

    def test_server_matches_engine(self, reddit):
        model, engine = trained(gcn, reddit)
        full = engine.embed(Tensor(reddit.features))
        session = InferenceSession(model, reddit.graph, reddit.features)
        seeds = np.arange(reddit.graph.num_vertices)
        with GNNServer(session, num_workers=2, max_batch_size=16,
                       max_delay=0.001) as server:
            futures = [server.submit("embed", np.array([s])) for s in seeds]
            got = np.vstack([f.result(timeout=30) for f in futures])
            assert_reordered_close(got, full, reddit.graph)
            np.testing.assert_array_equal(
                server.predict(seeds), full.argmax(axis=1)
            )

    def test_default_server_matches_engine_predict(self, reddit):
        model, engine = trained(gcn, reddit)
        feats = Tensor(reddit.features)
        expected = engine.predict(feats)
        session = InferenceSession(model, reddit.graph, reddit.features)
        seeds = np.arange(reddit.graph.num_vertices)
        with GNNServer(session) as server:
            futures = [server.submit("predict", seeds[i : i + 3])
                       for i in range(0, seeds.size, 3)]
            got = np.concatenate([f.result(timeout=30) for f in futures])
            np.testing.assert_array_equal(got, expected)
            repeated = np.array([3, 3, 1])
            np.testing.assert_array_equal(server.predict(repeated),
                                          expected[repeated])
            np.testing.assert_array_equal(server.embed(repeated),
                                          session.embed(repeated))


# ---------------------------------------------------------------------------
# Checkpoint metadata verification
# ---------------------------------------------------------------------------
class TestCheckpointVerification:
    def test_roundtrip_and_load(self, reddit, tmp_path):
        model, _ = trained(gcn, reddit)
        path = str(tmp_path / "ok.npz")
        save_checkpoint(model.state_dict(), path,
                        checkpoint_metadata(model, reddit.graph))
        fresh = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=99)
        session = InferenceSession(fresh, reddit.graph, reddit.features,
                                   checkpoint=path)
        np.testing.assert_allclose(
            fresh.layers[0].linear.weight.data,
            model.layers[0].linear.weight.data,
        )
        assert session.predict(np.array([0])).shape == (1,)

    def test_model_class_mismatch(self, reddit, tmp_path):
        model, _ = trained(gcn, reddit)
        path = str(tmp_path / "cls.npz")
        save_checkpoint(model.state_dict(), path,
                        checkpoint_metadata(model, reddit.graph))
        other = pinsage(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        with pytest.raises(CheckpointMismatch, match="model class"):
            InferenceSession(other, reddit.graph, reddit.features,
                             checkpoint=path)

    def test_layer_dims_mismatch(self, reddit, tmp_path):
        model, _ = trained(gcn, reddit)
        path = str(tmp_path / "dims.npz")
        save_checkpoint(model.state_dict(), path,
                        checkpoint_metadata(model, reddit.graph))
        wider = gcn(reddit.feat_dim, 16, reddit.num_classes, seed=0)
        with pytest.raises(CheckpointMismatch, match="layer dims"):
            InferenceSession(wider, reddit.graph, reddit.features,
                             checkpoint=path)

    def test_graph_fingerprint_mismatch(self, reddit, tmp_path):
        model, _ = trained(gcn, reddit)
        path = str(tmp_path / "fp.npz")
        save_checkpoint(model.state_dict(), path,
                        checkpoint_metadata(model, reddit.graph))
        src, dst = reddit.graph.edges()
        mutated = reddit.graph.with_edges_removed(
            np.array([[src[0], dst[0]]])
        )
        fresh = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            InferenceSession(fresh, mutated, reddit.features, checkpoint=path)

    def test_ondisk_checkpoint_serves_in_ram(self, reddit, tmp_path):
        """A model trained streaming off the on-disk copy of a graph is
        served over the same graph in RAM: both tiers fingerprint it
        alike, so the checkpoint loads."""
        from repro.core.sampling import MiniBatchTrainer
        from repro.storage import OnDiskDataset, write_ondisk_dataset

        root = str(tmp_path / "ondisk")
        write_ondisk_dataset(reddit, root)
        ondisk = OnDiskDataset(root)
        model = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        trainer = MiniBatchTrainer(model, ondisk, batch_size=64,
                                   fanouts=[5, 5], seed=0)
        trainer.train_epoch(optimizer=Adam(model.parameters(), lr=0.01),
                            mask=ondisk.train_mask, epoch=0)
        path = str(tmp_path / "ondisk.npz")
        save_checkpoint(model.state_dict(), path,
                        checkpoint_metadata(model, ondisk.graph))
        fresh = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=1)
        InferenceSession(fresh, reddit.graph, reddit.features,
                         checkpoint=path)
        trained_state = model.state_dict()
        for name, value in fresh.state_dict().items():
            np.testing.assert_array_equal(value, trained_state[name])

    def test_fingerprint_is_edge_order_independent(self, reddit):
        from repro.graph import Graph

        edges = [[0, 1], [1, 2], [2, 3], [3, 0]]
        a = Graph.from_edges(4, edges)
        b = Graph.from_edges(4, edges[::-1])
        assert a.fingerprint() == b.fingerprint()
        c = Graph.from_edges(4, edges[:-1])
        assert a.fingerprint() != c.fingerprint()

    def test_future_format_version_refused(self, reddit, tmp_path):
        # Version compatibility rides on storage's _check_version: a
        # checkpoint from a future format must be refused, not misread.
        import json

        path = str(tmp_path / "future.npz")
        np.savez(path, format_version=np.int64(99),
                 metadata=np.array(json.dumps({}), dtype=object))
        fresh = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        with pytest.raises(ValueError, match="format version"):
            InferenceSession(fresh, reddit.graph, reddit.features,
                             checkpoint=path)


# ---------------------------------------------------------------------------
# Micro-batching + load shedding
# ---------------------------------------------------------------------------
class TestMicroBatcher:
    def test_coalesces_pending_requests(self):
        batcher = MicroBatcher(max_batch_size=8, max_delay=0.0)
        for seed in (1, 2, 3):
            batcher.submit("embed", np.array([seed]))
        batch = batcher.next_batch()
        assert [int(r.seeds[0]) for r in batch] == [1, 2, 3]

    def test_batch_size_bound(self):
        batcher = MicroBatcher(max_batch_size=2, max_delay=0.0)
        for seed in range(5):
            batcher.submit("embed", np.array([seed]))
        assert len(batcher.next_batch()) == 2
        assert len(batcher.next_batch()) == 2
        assert len(batcher.next_batch()) == 1

    def test_default_hands_out_queued_work_without_a_timed_wait(self):
        # Work-conserving: a request queued on an idle server goes to the
        # next worker at once, without opening a delay window.
        batcher = MicroBatcher()

        def no_wait(*args, **kwargs):
            raise AssertionError("next_batch waited with a request queued")

        batcher._cond.wait = no_wait
        batcher.submit("predict", np.array([7]))
        assert [int(r.seeds[0]) for r in batcher.next_batch()] == [7]

    def test_default_coalesces_a_backlog_up_to_max_batch_size(self):
        batcher = MicroBatcher()
        for seed in (1, 2, 3):
            batcher.submit("embed", np.array([seed]))
        assert [int(r.seeds[0]) for r in batcher.next_batch()] == [1, 2, 3]
        batcher = MicroBatcher(max_batch_size=2)
        for seed in range(5):
            batcher.submit("embed", np.array([seed]))
        assert [len(batcher.next_batch()) for _ in range(3)] == [2, 2, 1]

    def test_opt_in_hold_waits_for_more_requests(self):
        batcher = MicroBatcher(max_batch_size=2, max_delay=30.0)
        batcher.submit("embed", np.array([0]))
        late = threading.Timer(
            0.01, batcher.submit, args=("embed", np.array([1])))
        late.start()
        try:
            # Held open until the late request fills the batch.
            assert [int(r.seeds[0]) for r in batcher.next_batch()] == [0, 1]
        finally:
            late.join()

    def test_queue_bound_sheds(self):
        batcher = MicroBatcher(max_batch_size=4, max_delay=0.0,
                               max_queue_depth=2)
        batcher.submit("embed", np.array([0]))
        batcher.submit("embed", np.array([1]))
        with pytest.raises(ServerOverloaded):
            batcher.submit("embed", np.array([2]))

    def test_close_drains_then_none(self):
        batcher = MicroBatcher(max_batch_size=4, max_delay=0.0)
        batcher.submit("embed", np.array([0]))
        batcher.close()
        assert batcher.next_batch() is not None
        assert batcher.next_batch() is None
        with pytest.raises(RuntimeError):
            batcher.submit("embed", np.array([1]))

    def test_close_without_drain_fails_queued_requests(self):
        batcher = MicroBatcher(max_batch_size=4, max_delay=0.0)
        requests = [batcher.submit("embed", np.array([s])) for s in range(3)]
        batcher.close(drain=False)
        for request in requests:
            with pytest.raises(ServerOverloaded):
                request.future.result(timeout=0)
        assert batcher.next_batch() is None

    def test_rejects_bad_requests(self):
        batcher = MicroBatcher()
        with pytest.raises(ValueError):
            batcher.submit("rank", np.array([0]))
        with pytest.raises(ValueError):
            batcher.submit("embed", np.array([], dtype=np.int64))


class TestServerOperations:
    def test_overload_sheds_and_recovers(self, reddit):
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        server = GNNServer(session, num_workers=1, max_batch_size=4,
                           max_delay=0.05, max_queue_depth=4)
        with server:
            futures, shed = [], 0
            for seed in range(64):
                try:
                    futures.append(
                        server.submit("predict",
                                      np.array([seed % reddit.graph.num_vertices]))
                    )
                except ServerOverloaded:
                    shed += 1
            for future in futures:
                assert future.result(timeout=30).shape == (1,)
        assert shed > 0
        summary = server.slo_summary()
        assert summary["shed"] >= shed
        assert summary["completed"] >= len(futures)

    def test_drain_completes_accepted_requests(self, reddit):
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        server = GNNServer(session, num_workers=2, max_batch_size=8,
                           max_delay=0.05)
        server.start()
        futures = [server.submit("embed", np.array([s]))
                   for s in range(10)]
        server.stop(drain=True)
        for future in futures:
            assert future.result(timeout=1).shape[0] == 1

    def test_stop_without_drain_fails_queued_requests(self, reddit):
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        # A long hold keeps every request queued: no worker takes one
        # before the stop.
        server = GNNServer(session, num_workers=2, max_batch_size=1024,
                           max_delay=60.0)
        server.start()
        workers = [t for t in threading.enumerate()
                   if t.name.startswith("gnn-serve-")]
        assert len(workers) == 2
        futures = [server.submit("embed", np.array([s])) for s in range(5)]
        server.stop(drain=False, timeout=10)
        for future in futures:
            with pytest.raises(ServerOverloaded):
                future.result(timeout=1)
        assert len(server.batcher) == 0
        assert not any(t.is_alive() for t in workers)
        assert not [t.name for t in threading.enumerate()
                    if t.name.startswith("gnn-serve-")]

    def test_request_errors_propagate_to_futures(self, reddit):
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        with GNNServer(session, num_workers=1, max_delay=0.0) as server:
            future = server.submit(
                "embed", np.array([reddit.graph.num_vertices + 5])
            )
            with pytest.raises(ValueError):
                future.result(timeout=30)

    def test_slo_summary_shape(self, reddit):
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        with GNNServer(session, num_workers=1) as server:
            server.predict(np.array([0, 1]))
        summary = server.slo_summary()
        for key in ("requests", "completed", "shed", "shed_rate",
                    "latency_ms", "batches", "session"):
            assert key in summary
        assert summary["latency_ms"]["p99"] >= 0.0

    def test_slo_summary_percentiles_are_exact(self, reddit):
        """100 known latencies -> p50/p90/p99 are their order statistics
        (they used to be log-bucket upper bounds, with p90 == p99
        whenever the two shared a bucket)."""
        from repro import obs

        obs.reset()
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        server = GNNServer(session, num_workers=1)
        latencies = [i * 1e-3 for i in range(1, 101)]       # 1..100 ms
        for latency in reversed(latencies):
            server._record_latency(latency)
        lat = server.slo_summary()["latency_ms"]
        assert lat["count"] == 100
        assert lat["mean"] == pytest.approx(50.5)
        assert lat["max"] == pytest.approx(100.0)
        assert lat["p50"] == pytest.approx(51.0, abs=1e-9)
        assert lat["p90"] == pytest.approx(90.0, abs=1e-9)
        assert lat["p99"] == pytest.approx(99.0, abs=1e-9)
        assert lat["p90"] < lat["p99"]
        obs.reset()

    def test_batches_counted_while_recording_is_disabled(self, reddit):
        """The ledger reads slo_summary()["batches"]["count"] around
        passes it runs under obs.disable()."""
        from repro import obs

        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        obs.reset()
        obs.disable()
        try:
            with GNNServer(session, num_workers=1, max_delay=0.0) as server:
                server.predict(np.array([0]))
                server.predict(np.array([1]))
            summary = server.slo_summary()
        finally:
            obs.enable()
        assert obs.get_registry().spans == []
        assert summary["batches"]["count"] == 2
        assert summary["batches"]["mean_ms"] > 0.0
        assert summary["latency_ms"]["count"] == 2
        obs.reset()


# ---------------------------------------------------------------------------
# Versioned caches + targeted invalidation
# ---------------------------------------------------------------------------
class TestEmbeddingCache:
    def test_lru_byte_budget_eviction(self):
        row = np.ones(4)
        cache = EmbeddingCache(max_bytes=3 * row.nbytes)
        cache.store(1, np.array([0, 1, 2]), np.tile(row, (3, 1)))
        # Touch vertex 0 so vertex 1 is the LRU entry.
        cache.lookup(1, np.array([0]))
        cache.store(1, np.array([3]), row[None])
        hit_mask, _ = cache.lookup(1, np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(hit_mask, [True, False, True, True])
        assert cache.evictions == 1

    def test_invalidate_counts_per_layer(self):
        cache = EmbeddingCache(max_bytes=1 << 20)
        rows = np.ones((3, 2))
        cache.store(1, np.array([0, 1, 2]), rows)
        cache.store(2, np.array([0, 1, 2]), rows)
        assert cache.invalidate(np.array([1, 2]), layer=1) == 2
        assert len(cache) == 4
        hit_mask, _ = cache.lookup(2, np.array([1]))
        assert hit_mask.all()

    def test_zero_budget_disables(self):
        cache = EmbeddingCache(max_bytes=0)
        cache.store(1, np.array([0]), np.ones((1, 2)))
        hit_mask, _ = cache.lookup(1, np.array([0]))
        assert not hit_mask.any()


class TestSessionStats:
    """``stats()`` carries what the performance ledger's serve pass reads."""

    def test_cache_entries_count_hits_and_misses(self, reddit, monkeypatch):
        built = []

        def counting_build_block(*args, **kwargs):
            built.append(build_block(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(session_module, "build_block", counting_build_block)
        model = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        session = InferenceSession(model, reddit.graph, reddit.features)
        rng = np.random.default_rng(0)
        for _ in range(40):
            session.predict(rng.choice(reddit.graph.num_vertices, 3,
                                       replace=False))
        stats = session.stats()
        for cache in ("embed_cache", "block_cache"):
            assert type(stats[cache]["hits"]) is int
            assert type(stats[cache]["misses"]) is int
        assert stats["embed_cache"]["hits"] > 0
        assert built
        # No block is reused: every block built is one miss.
        assert stats["block_cache"]["hits"] == 0
        assert stats["block_cache"]["misses"] == len(built)


class TestInvalidation:
    def test_expand_affected_covers_dependents(self, reddit):
        model = gcn(reddit.feat_dim, 8, reddit.num_classes, seed=0)
        hdg = model.neighbor_selection(reddit.graph, np.random.default_rng(0))
        target = np.array([0])
        expanded = expand_affected(hdg, target)
        indptr, indices = reddit.graph.csc
        for root in range(reddit.graph.num_vertices):
            nbrs = indices[indptr[root]:indptr[root + 1]]
            if 0 in nbrs:
                assert root in expanded

    def test_gcn_update_serves_fresh_values(self, reddit):
        """After apply_edge_changes, affected roots match a fresh engine
        on the new graph while unaffected cached entries survive."""
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        all_v = np.arange(reddit.graph.num_vertices)
        session.embed(all_v)  # warm every layer
        warm_entries = len(session.embed_cache)

        src, dst = reddit.graph.edges()
        removed = np.array([[src[0], dst[0]]])
        added = np.array([[0, 1]])
        evicted = session.apply_edge_changes(added=added, removed=removed)
        assert 0 < evicted < warm_entries  # targeted, not a flush
        assert len(session.embed_cache) == warm_entries - evicted

        new_graph = (reddit.graph.with_edges_removed(removed)
                     .with_edges_added(added))
        fresh = FlexGraphEngine(model, new_graph, seed=0)
        expected = fresh.embed(Tensor(reddit.features))
        assert_reordered_close(session.embed(all_v), expected, new_graph)

    def test_gcn_unaffected_entries_survive_with_hits(self, reddit):
        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        all_v = np.arange(reddit.graph.num_vertices)
        session.embed(all_v)
        src, dst = reddit.graph.edges()
        removed = np.array([[src[0], dst[0]]])
        session.apply_edge_changes(removed=removed)
        # Final-layer entries that survived the eviction answer straight
        # from cache: querying them counts hits, no misses.
        surviving = [v for v in range(reddit.graph.num_vertices)
                     if (session.num_layers, v) in session.embed_cache._entries]
        assert surviving  # the change's blast radius is not the whole graph
        hits0, misses0 = session.embed_cache.hits, session.embed_cache.misses
        session.embed(np.array(surviving[:5]))
        assert session.embed_cache.hits == hits0 + min(5, len(surviving))
        assert session.embed_cache.misses == misses0

    def test_magnn_maintainer_update_parity(self, imdb):
        """A served MAGNN keeps serving the model's own HDG across an
        edit: the model repairs it (``reselect``), the cap included, and
        every row equals a full-graph engine's on the edited graph."""
        model, _ = trained(magnn, imdb, max_instances_per_root=30)
        session = InferenceSession(model, imdb.graph, imdb.features)
        all_v = np.arange(imdb.graph.num_vertices)
        session.embed(all_v)
        warm_entries = len(session.embed_cache)

        src, dst = imdb.graph.edges()
        removed = np.array([[src[0], dst[0]]])
        evicted = session.apply_edge_changes(removed=removed)
        assert 0 < evicted < warm_entries

        edited = imdb.graph.with_edges_removed(removed)
        expected = FlexGraphEngine(model, edited).embed(Tensor(imdb.features))
        np.testing.assert_allclose(session.embed(all_v), expected, atol=1e-6)

    def test_opaque_selection_full_flush(self, reddit):
        model, engine = trained(pinsage, reddit)
        engine.embed(Tensor(reddit.features))
        session = InferenceSession(model, reddit.graph, reddit.features,
                                   hdg=engine.hdgs.model_hdg, seed=0)
        session.embed(np.arange(reddit.graph.num_vertices))
        assert len(session.embed_cache) > 0
        src, dst = reddit.graph.edges()
        session.apply_edge_changes(removed=np.array([[src[0], dst[0]]]))
        # Stochastic selection: rebuilt HDGs are not comparable, so the
        # whole cache goes.
        assert len(session.embed_cache) == 0


# ---------------------------------------------------------------------------
# Rolling SLO window (last-N-seconds p50/p99 + shed rate)
# ---------------------------------------------------------------------------
class TestSloWindow:
    def test_percentiles_over_recorded_samples(self):
        from repro.serve.server import _SloWindow

        win = _SloWindow(window_seconds=60.0)
        for i in range(100):
            win.record_latency((i + 1) * 1e-3, now=100.0)
        s = win.summary(now=101.0)
        assert s["requests"] == 100
        assert s["p50_ms"] == pytest.approx(51.0, abs=1.0)
        assert s["p99_ms"] == pytest.approx(99.0, abs=1.5)
        assert s["mean_ms"] == pytest.approx(50.5, abs=0.1)
        assert s["shed"] == 0 and s["shed_rate"] == 0.0
        assert s["throughput_rps"] == pytest.approx(100 / 60.0)

    def test_old_samples_expire(self):
        from repro.serve.server import _SloWindow

        win = _SloWindow(window_seconds=10.0)
        win.record_latency(0.5, now=0.0)     # will fall out of the window
        win.record_shed(now=0.0)             # likewise
        win.record_latency(0.001, now=95.0)
        win.record_shed(now=95.0)
        s = win.summary(now=100.0)
        assert s["requests"] == 1
        assert s["p99_ms"] == pytest.approx(1.0)
        assert s["shed"] == 1
        assert s["shed_rate"] == pytest.approx(0.5)

    def test_empty_window_is_all_zero(self):
        from repro.serve.server import _SloWindow

        s = _SloWindow(window_seconds=5.0).summary(now=1e6)
        assert s["requests"] == 0 and s["p50_ms"] == 0.0
        assert s["shed_rate"] == 0.0 and s["throughput_rps"] == 0.0

    def test_server_summary_and_gauges_carry_window(self, reddit):
        from repro import obs
        from repro.serve.server import (
            WINDOW_P50_GAUGE,
            WINDOW_P99_GAUGE,
            WINDOW_SHED_GAUGE,
        )

        model, _ = trained(gcn, reddit)
        session = InferenceSession(model, reddit.graph, reddit.features)
        with GNNServer(session, num_workers=1, max_batch_size=8,
                       max_delay=0.0, window_seconds=30.0) as server:
            for seed in range(12):
                server.predict(np.array([seed % reddit.graph.num_vertices]))
            summary = server.slo_summary()
        window = summary["window"]
        assert window["seconds"] == 30.0
        assert window["requests"] == 12
        assert window["p99_ms"] >= window["p50_ms"] > 0.0
        assert window["shed"] == 0
        reg = obs.get_registry()
        assert reg.gauge(WINDOW_P50_GAUGE).value == pytest.approx(
            window["p50_ms"])
        assert reg.gauge(WINDOW_P99_GAUGE).value == pytest.approx(
            window["p99_ms"])
        assert reg.gauge(WINDOW_SHED_GAUGE).value == 0.0
