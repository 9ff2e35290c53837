"""Tests for the simulated distributed runtime: comm model, dependency
planning, and the trainer's equivalence with single-machine execution."""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core import FlexGraphEngine
from repro.core.hdg import hdg_from_graph
from repro.core.selection import build_metapath_hdg
from repro.datasets import load_dataset
from repro.distributed import (
    CommConfig,
    DependencyStats,
    DistributedTrainer,
    MultiprocessTrainer,
    dependency_stats,
    flexgraph_scaling,
    model_baseline_scaling,
    plan_layer_comm,
)
from repro.core.step import Partition
from repro.distributed.comm import ProcessComm
from repro.distributed.rank import Rank, attach_hdg
from repro.graph import (
    Metapath,
    hash_partition,
    heterogeneous_graph,
    power_law_graph,
    spectral_partition,
)
from repro.models import gat, gcn, magnn, pinsage
from repro.tensor import Adam, Tensor


@pytest.fixture
def tick_clock(monkeypatch):
    """Replace the obs clock with a counter: a span's measured duration
    becomes the number of clock reads inside it — a function of the code
    path, not of the host — so modeled epoch times can be compared
    exactly instead of through wall-clock noise."""
    ticks = itertools.count()
    monkeypatch.setattr(obs.get_registry(), "now", lambda: float(next(ticks)))


def _stats(counts) -> DependencyStats:
    """A hand-built ``[dst, src]`` count matrix driving every plan."""
    counts = np.asarray(counts, dtype=np.int64)
    k = counts.shape[0]
    return DependencyStats(k, counts, counts)


def _blocks(hdg, labels):
    """The rank blocks both trainers cut from ``hdg`` under ``labels``."""
    ranks = [Rank(w, part) for w, part in
             enumerate(Partition(labels, hdg.num_roots).parts)]
    attach_hdg(ranks, hdg, np.asarray(labels))
    return ranks


def _halo_leaf_entries(rank):
    """Bottom-level edges of a rank's block whose leaf is a halo row."""
    return int(np.count_nonzero(
        ~np.isin(rank.block.leaf_vertices, rank.out_rows)))


def _plan_by_pairs(counts, feat_bytes, config, mode):
    """The per-pair accounting the closed form must reproduce: one
    message per count (naive) or per non-empty pair, paid by the sender
    and the receiver, local pairs skipped."""
    k = counts.shape[0]
    sent_b, sent_m = [0.0] * k, [0] * k
    recv_b, recv_m = [0.0] * k, [0] * k
    total_b, total_m = 0.0, 0
    for dst in range(k):
        for src in range(k):
            count = int(counts[dst, src])
            if not count or src == dst:
                continue
            nbytes = count * feat_bytes
            messages = count if mode == "naive" else 1
            sent_b[src] += nbytes
            sent_m[src] += messages
            recv_b[dst] += nbytes
            recv_m[dst] += messages
            total_b += nbytes
            total_m += messages
    seconds = np.array([config.message_time(sent_b[w] + recv_b[w],
                                            sent_m[w] + recv_m[w])
                        for w in range(k)])
    return seconds, total_b, total_m


class TestNetworkModel:
    def test_local_delivery_free(self):
        """A nonzero diagonal is never priced."""
        plan = plan_layer_comm(_stats(np.diag([5, 7])), 100, CommConfig(),
                               "naive")
        assert plan.total_bytes == 0 and plan.total_messages == 0
        np.testing.assert_array_equal(plan.per_worker_seconds, [0.0, 0.0])

    def test_message_accounting(self):
        # 500 bytes in 2 messages from worker 0 to worker 1 ([dst, src]).
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[1, 0] = 2
        plan = plan_layer_comm(_stats(counts), 250,
                               CommConfig(latency=0.01, bandwidth=1000),
                               "naive")
        assert plan.total_messages == 2
        # Worker 0 sent, worker 1 received, worker 2 idle.
        assert plan.per_worker_seconds[0] == pytest.approx(0.02 + 0.5)
        assert plan.per_worker_seconds[1] == pytest.approx(0.02 + 0.5)
        assert plan.per_worker_seconds[2] == 0.0

    @pytest.mark.parametrize("mode", ["naive", "batched", "pipelined"])
    def test_closed_form_equals_per_pair_loop(self, mode):
        rng = np.random.default_rng(11)
        config = CommConfig(latency=3e-5, bandwidth=1.7e8)
        for k in (1, 2, 3, 5, 8):
            counts = rng.integers(0, 50, (k, k)) * (rng.random((k, k)) < 0.7)
            feat_bytes = int(rng.integers(1, 100)) * 8
            plan = plan_layer_comm(_stats(counts), feat_bytes, config, mode)
            seconds, total_b, total_m = _plan_by_pairs(counts, feat_bytes,
                                                       config, mode)
            assert [x.hex() for x in plan.per_worker_seconds.tolist()] == \
                [x.hex() for x in seconds.tolist()]
            assert plan.total_bytes.hex() == total_b.hex()
            assert plan.total_messages == total_m

    def test_allreduce_time_zero_for_single_worker(self):
        assert CommConfig().allreduce_time(1e9, 1) == 0.0

    def test_allreduce_grows_with_k(self):
        t2 = CommConfig().allreduce_time(1e6, 2)
        t8 = CommConfig().allreduce_time(1e6, 8)
        assert t8 > t2 > 0

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            ProcessComm(0)


#: clock-free modeled numbers of two epochs (reddit tiny, hash
#: partition, seed-0 model), fixed when the per-pair communicator was
#: replaced by the closed form and re-pinned when compute moved to
#: float32 (every byte count exactly halved): per epoch (per-rank comm
#: seconds, total bytes, total messages), then the dist.allreduce span
#: duration and the comm.bytes / comm.messages counter totals.
_PINNED = {
    "gcn-k4-pipelined": (
        gcn, 4,
        (["0x1.0e8858ff75968p-10"] * 4, "0x1.5180000000000p+17", 24),
        "0x1.4d320ced793fbp-12",
        ("0x1.5180000000000p+18", "0x1.8000000000000p+5"),
    ),
    "gat-k2-batched": (
        gat, 2,
        (["0x1.eb928ab19f49ep-8"] * 2, "0x1.647c000000000p+20", 4),
        "0x1.05b97d64afad0p-13",
        ("0x1.647c000000000p+21", "0x1.0000000000000p+3"),
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_modeled_numbers_pinned(case):
    factory, k, epoch, allreduce, counters = _PINNED[case]
    ds = load_dataset("reddit", scale="tiny")
    obs.reset()
    model = factory(ds.feat_dim, 8, ds.num_classes, seed=0)
    trainer = DistributedTrainer(model, ds.graph,
                                 hash_partition(ds.graph.num_vertices, k))
    opt = Adam(model.parameters(), 0.01)
    for e in range(2):
        stats = trainer.train_epoch(Tensor(ds.features), ds.labels, opt,
                                    ds.train_mask, e)
        assert ([float(c).hex() for c in stats.comm_seconds],
                stats.total_bytes.hex(), stats.total_messages) == epoch
    reg = obs.get_registry()
    assert [s.duration.hex() for s in reg.spans
            if s.name == "dist.allreduce"] == [allreduce] * 2
    assert (reg.counter("comm.bytes").total.hex(),
            reg.counter("comm.messages").total.hex()) == counters
    obs.reset()


class TestDependencyStats:
    """The plan's counts, restated against the rank blocks the trainers
    actually run: a remote edge is a block leaf entry at a halo row."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = power_law_graph(200, 6, seed=0)
        hdg = hdg_from_graph(g)
        labels = hash_partition(200, 4)
        return hdg, labels, dependency_stats(hdg, labels, 4)

    def test_edges_partition_into_local_and_remote(self, setup):
        hdg, labels, stats = setup
        ranks = _blocks(hdg, labels)
        assert [_halo_leaf_entries(r) for r in ranks] == \
            stats.remote_edges_per_pair.sum(axis=1).tolist()
        assert sum(r.block.leaf_vertices.size for r in ranks) == \
            hdg.leaf_vertices.size

    def test_no_self_pairs(self, setup):
        _hdg, _labels, stats = setup
        assert np.all(np.diag(stats.remote_edges_per_pair) == 0)
        assert np.all(np.diag(stats.partial_messages_per_pair) == 0)

    def test_partial_messages_never_exceed_leaf_fetches(self, setup):
        """Partial aggregation can only shrink traffic: at most one
        message per (root, partition) vs one per remote edge."""
        _hdg, _labels, stats = setup
        assert (stats.partial_messages_per_pair.sum()
                <= stats.remote_edges_per_pair.sum())

    def test_single_partition_all_local(self):
        g = power_law_graph(100, 4, seed=1)
        hdg = hdg_from_graph(g)
        labels = np.zeros(100, dtype=int)
        stats = dependency_stats(hdg, labels, 1)
        assert stats.remote_edges_per_pair.sum() == 0
        (rank,) = _blocks(hdg, labels)
        assert _halo_leaf_entries(rank) == 0
        np.testing.assert_array_equal(rank.inputs, np.arange(100))

    def test_hierarchical_hdg_supported(self):
        g = heterogeneous_graph(40, 10, 30, seed=2)
        hdg = build_metapath_hdg(g, [Metapath((0, 1, 0)), Metapath((0, 2, 0))])
        labels = hash_partition(g.num_vertices, 2)
        stats = dependency_stats(hdg, labels, 2)
        assert [_halo_leaf_entries(r) for r in _blocks(hdg, labels)] == \
            stats.remote_edges_per_pair.sum(axis=1).tolist()


class TestRankBlocks:
    """Every rank is a block in its own owned ∪ halo coordinates."""

    @pytest.fixture(scope="class", params=["hash-4", "spectral-4",
                                           "empty-rank", "metapath-2"])
    def blocks(self, request):
        if request.param == "metapath-2":
            g = heterogeneous_graph(40, 10, 30, seed=2)
            hdg = build_metapath_hdg(g, [Metapath((0, 1, 0)),
                                         Metapath((0, 2, 0))])
            labels = hash_partition(g.num_vertices, 2)
        else:
            g = load_dataset("reddit", scale="tiny").graph
            hdg = hdg_from_graph(g)
            labels = {
                "hash-4": lambda: hash_partition(g.num_vertices, 4),
                "spectral-4": lambda: spectral_partition(g, 4),
                # Labels {0, 2}: worker 1 owns nothing.
                "empty-rank": lambda: 2 * hash_partition(g.num_vertices, 2),
            }[request.param]()
        return hdg, labels, _blocks(hdg, labels)

    def test_owned_sets_partition_the_vertices(self, blocks):
        hdg, _labels, ranks = blocks
        owned = np.concatenate([r.root_orders for r in ranks])
        np.testing.assert_array_equal(np.sort(owned), np.arange(hdg.num_roots))

    def test_universe_is_owned_and_leaves(self, blocks):
        hdg, _labels, ranks = blocks
        for r in ranks:
            sub = hdg.restrict_to_roots(r.root_orders)
            np.testing.assert_array_equal(
                r.inputs, np.union1d(r.root_orders, sub.leaf_vertices))
            assert np.all(np.diff(r.inputs) > 0)          # sorted, unique
            np.testing.assert_array_equal(r.inputs[r.out_rows], r.root_orders)
            # The block is the slice, relabeled: same structure, local ids.
            np.testing.assert_array_equal(r.inputs[r.block.leaf_vertices],
                                          sub.leaf_vertices)
            np.testing.assert_array_equal(r.block.leaf_offsets,
                                          sub.leaf_offsets)
            np.testing.assert_array_equal(r.block.roots, r.out_rows)
            assert r.block.num_input_vertices == r.inputs.size

    def test_halo_is_disjoint_from_the_owned_rows(self, blocks):
        _hdg, labels, ranks = blocks
        for r in ranks:
            halo = np.delete(r.inputs, r.out_rows)
            assert np.intersect1d(halo, r.root_orders).size == 0
            assert np.all(labels[halo] != r.rank)
            np.testing.assert_array_equal(
                r.halo_counts, np.bincount(labels[halo], minlength=len(ranks)))

    def test_receive_lists_cover_each_owners_rows_in_peer_halos(self, blocks):
        _hdg, labels, ranks = blocks
        for owner in ranks:
            assert len(owner.recv) == len(ranks)
            for peer, (pos, own) in zip(ranks, owner.recv):
                # Where the rows sit on both sides agree ...
                np.testing.assert_array_equal(peer.inputs[pos],
                                              owner.root_orders[own])
                # ... and they are exactly the owner's rows in the peer's
                # universe: its halo, or, for the owner itself, its rows.
                np.testing.assert_array_equal(
                    np.sort(peer.inputs[pos]),
                    peer.inputs[labels[peer.inputs] == owner.rank])
                expected = 0 if peer is owner else peer.halo_counts[owner.rank]
                assert owner.recv_counts[peer.rank] == expected
            pos, own = owner.recv[owner.rank]
            np.testing.assert_array_equal(pos, owner.out_rows)
            assert own == slice(None)


class TestCommPlans:
    @pytest.fixture(scope="class")
    def stats(self):
        g = power_law_graph(300, 8, seed=3)
        hdg = hdg_from_graph(g)
        return dependency_stats(hdg, hash_partition(300, 4), 4)

    def test_batched_fewer_messages_than_naive(self, stats):
        cfg = CommConfig()
        naive = plan_layer_comm(stats, 64, cfg, "naive")
        batched = plan_layer_comm(stats, 64, cfg, "batched")
        assert batched.total_messages < naive.total_messages
        assert batched.total_bytes == naive.total_bytes

    def test_pipelined_fewer_bytes_and_overlaps(self, stats):
        cfg = CommConfig()
        batched = plan_layer_comm(stats, 64, cfg, "batched")
        piped = plan_layer_comm(stats, 64, cfg, "pipelined")
        assert piped.total_bytes <= batched.total_bytes
        assert piped.overlaps_compute and not batched.overlaps_compute

    def test_non_commutative_falls_back_to_batched(self, stats):
        plan = plan_layer_comm(stats, 64, CommConfig(), "pipelined", commutative=False)
        assert plan.mode == "batched"
        assert not plan.overlaps_compute

    def test_unknown_mode_raises(self, stats):
        with pytest.raises(ValueError):
            plan_layer_comm(stats, 64, CommConfig(), "telepathy")


class TestDistributedTrainer:
    @pytest.fixture(scope="class")
    def ds(self):
        return load_dataset("reddit", scale="tiny")

    def test_distributed_loss_matches_single_machine(self, ds):
        """Partitioned execution is a *reorganization* of the same math."""
        feats = Tensor(ds.features)
        single = gcn(ds.feat_dim, 8, ds.num_classes, seed=7)
        eng = FlexGraphEngine(single, ds.graph)
        s_stats = eng.train_epoch(feats, ds.labels, Adam(single.parameters(), 0.01), ds.train_mask)

        dist_model = gcn(ds.feat_dim, 8, ds.num_classes, seed=7)
        trainer = DistributedTrainer(
            dist_model, ds.graph, hash_partition(ds.graph.num_vertices, 4)
        )
        d_stats = trainer.train_epoch(
            feats, ds.labels, Adam(dist_model.parameters(), 0.01), ds.train_mask
        )
        # A rank's universe may flip the project/reduce order of a layer,
        # and the loss becomes k partial sums: in float32 each reorders a
        # sum of at most (max in-degree) terms.
        max_degree = int(np.diff(ds.graph.csc[0]).max())
        bound = max_degree * float(np.finfo(np.float32).eps)
        assert d_stats.loss == pytest.approx(s_stats.loss, rel=bound)

    @pytest.mark.parametrize("factory", [gcn, pinsage],
                             ids=["gcn-static", "pinsage-per-epoch"])
    def test_one_worker_matches_engine_for_every_model_level_scope(
            self, ds, factory):
        """At k=1 the partitioned loop is the engine's: same HDG
        lifecycle (one shared implementation), a loss share of exactly
        1.0, so the same loss, bitwise, every epoch, on both backends."""
        feats = Tensor(ds.features)
        part = hash_partition(ds.graph.num_vertices, 1)
        losses = {}
        for name in ("engine", "distributed", "process"):
            model = factory(ds.feat_dim, 8, ds.num_classes, seed=7)
            opt = Adam(model.parameters(), 0.01)
            if name == "engine":
                runner = FlexGraphEngine(model, ds.graph, seed=3)
            elif name == "distributed":
                runner = DistributedTrainer(model, ds.graph, part, seed=3)
            else:
                runner = MultiprocessTrainer(model, ds.graph, part, seed=3)
            try:
                losses[name] = [
                    runner.train_epoch(feats, ds.labels, opt, ds.train_mask,
                                       e).loss
                    for e in range(3)
                ]
            finally:
                if name == "process":
                    runner.close()
        assert losses["distributed"] == losses["engine"]
        assert losses["process"] == losses["engine"]

    def test_reassembly_permutation_precomputed_once(self, ds):
        # Regression (perf): the constant permutation that puts rank
        # outputs back into vertex order used to be recomputed inside
        # every layer loop of every epoch; each rank now writes its rows
        # at root orders derived from the fixed partition once, at
        # construction.
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        trainer = DistributedTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 4)
        )
        n = ds.graph.num_vertices
        before = [rank.root_orders for rank in trainer.ranks]
        trainer.train_epoch(Tensor(ds.features), ds.labels,
                            Adam(model.parameters(), 0.01), ds.train_mask)
        for rank, part, orders in zip(trainer.ranks, trainer.partition.parts,
                                      before):
            assert rank.root_orders is part is orders
        order = np.concatenate(before)
        np.testing.assert_array_equal(np.sort(order), np.arange(n))

    def test_pipeline_not_slower_than_batched(self, ds, tick_clock):
        feats = Tensor(ds.features)
        times = {}
        for pp in (True, False):
            model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
            trainer = DistributedTrainer(
                model, ds.graph, hash_partition(ds.graph.num_vertices, 4), pipeline=pp
            )
            trainer.train_epoch(feats, ds.labels, Adam(model.parameters(), 0.01), ds.train_mask)
            times[pp] = trainer.aggregation_epoch_time(feats, epoch=0)
        # Same compute ticks either way; pipelined mode sends fewer bytes
        # and overlaps them, so it can only model out faster.
        assert times[True] <= times[False]

    def test_epoch_stats_fields(self, ds):
        model = pinsage(ds.feat_dim, 8, ds.num_classes)
        trainer = DistributedTrainer(
            model, ds.graph, hash_partition(ds.graph.num_vertices, 2)
        )
        stats = trainer.train_epoch(
            Tensor(ds.features), ds.labels, Adam(model.parameters(), 0.01), ds.train_mask
        )
        assert stats.simulated_seconds > 0
        assert stats.compute_seconds.shape == (2,)
        assert stats.total_bytes > 0
        assert stats.comm_mode == "pipelined"

    def test_comm_bytes_follow_model_dtype(self, ds):
        """Traffic accounting uses the actual row itemsize, and rows cross
        in the model's parameter dtype whatever the feature array's: a
        float64 model moves exactly twice the bytes of the float32
        default (single-layer model so every counted row is a feature
        row)."""

        def epoch_bytes(feats_np, dtype):
            model = gcn(ds.feat_dim, 8, ds.num_classes, num_layers=1,
                        seed=7).astype(dtype)
            trainer = DistributedTrainer(
                model, ds.graph, hash_partition(ds.graph.num_vertices, 2)
            )
            stats = trainer.train_epoch(
                Tensor(feats_np), ds.labels,
                Adam(model.parameters(), 0.01), ds.train_mask,
            )
            return stats.total_bytes

        feats64 = ds.features.astype(np.float64)
        bytes32 = epoch_bytes(ds.features, np.float32)
        assert bytes32 > 0
        assert epoch_bytes(feats64, np.float32) == bytes32
        assert epoch_bytes(ds.features, np.float64) == 2 * bytes32

    def test_bad_partition_shape_raises(self, ds):
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        with pytest.raises(ValueError):
            DistributedTrainer(model, ds.graph, np.zeros(3, dtype=int))

    def test_magnn_distributed_runs(self):
        g = heterogeneous_graph(40, 10, 30, seed=1)
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((g.num_vertices, 6))
        labels = rng.integers(0, 3, g.num_vertices)
        model = magnn(6, 8, 3)
        trainer = DistributedTrainer(model, g, hash_partition(g.num_vertices, 2))
        stats = trainer.train_epoch(
            Tensor(feats), labels, Adam(model.parameters(), 0.01)
        )
        assert np.isfinite(stats.loss)


class TestScalingHelpers:
    def test_flexgraph_scaling_returns_points(self):
        ds = load_dataset("reddit", scale="tiny")
        pts = flexgraph_scaling(
            lambda: gcn(ds.feat_dim, 8, ds.num_classes),
            ds, [1, 2],
            lambda k: hash_partition(ds.graph.num_vertices, k),
        )
        assert [p.k for p in pts] == [1, 2]
        assert all(p.seconds > 0 for p in pts)

    def test_baseline_model_monotone_compute(self):
        pts = model_baseline_scaling(100.0, [1, 2, 4, 8], bytes_per_epoch=0.0,
                                     messages_per_epoch=0)
        secs = [p.seconds for p in pts]
        assert secs == sorted(secs, reverse=True)

    def test_baseline_model_comm_floor(self):
        # With heavy traffic, scaling flattens out (comm floor).
        pts = model_baseline_scaling(10.0, [1, 16], bytes_per_epoch=1e10,
                                     messages_per_epoch=int(1e6))
        assert pts[1].seconds > 10.0 / 16


class TestWorkerSpeeds:
    def test_validation(self):
        ds = load_dataset("reddit", scale="tiny")
        model = gcn(ds.feat_dim, 8, ds.num_classes)
        labels = hash_partition(ds.graph.num_vertices, 2)
        with pytest.raises(ValueError):
            DistributedTrainer(model, ds.graph, labels, worker_speeds=np.ones(3))
        with pytest.raises(ValueError):
            DistributedTrainer(model, ds.graph, labels,
                               worker_speeds=np.array([1.0, 0.0]))

    def test_slow_worker_slows_epoch(self, tick_clock):
        ds = load_dataset("reddit", scale="tiny")
        feats = Tensor(ds.features)
        labels = hash_partition(ds.graph.num_vertices, 2)
        times = {}
        for name, speeds in (("even", None), ("skewed", np.array([1.0, 0.1]))):
            model = gcn(ds.feat_dim, 8, ds.num_classes, seed=0)
            trainer = DistributedTrainer(model, ds.graph, labels,
                                         worker_speeds=speeds)
            stats = trainer.train_epoch(feats, ds.labels,
                                        Adam(model.parameters(), 0.01),
                                        ds.train_mask)
            times[name] = trainer.aggregation_epoch_time(feats)
        # Both workers run the same code path, so within one run the
        # 1/speed scale is the only difference between them ...
        assert stats.compute_seconds[1] == pytest.approx(
            10 * stats.compute_seconds[0])
        # ... and the epoch runs at the pace of the slowed worker.
        assert times["skewed"] > times["even"] * 2

    def test_speeds_do_not_change_math(self):
        ds = load_dataset("reddit", scale="tiny")
        feats = Tensor(ds.features)
        labels = hash_partition(ds.graph.num_vertices, 2)
        losses = []
        for speeds in (None, np.array([5.0, 0.1])):
            model = gcn(ds.feat_dim, 8, ds.num_classes, seed=4)
            trainer = DistributedTrainer(model, ds.graph, labels,
                                         worker_speeds=speeds)
            stats = trainer.train_epoch(
                feats, ds.labels, Adam(model.parameters(), 0.01), ds.train_mask
            )
            losses.append(stats.loss)
        assert losses[0] == pytest.approx(losses[1], rel=1e-12)
