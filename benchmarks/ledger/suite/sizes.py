"""Frozen workload sizes.

``FULL`` is what ``BENCHMARK.json``'s numbers are measured at; it was
tuned once on the build host (2 cores, 16 GB) so that one pass of one
workload — three set-ups, ``run_seconds`` of timed operations, the
checks — fits the driver's budget of about 25 s, with at least 20 timed
operations behind each median on the sub-second workloads.  A PR that
claims a gain may not edit this file.  ``SMOKE`` runs the same code
paths and checks in a second or two per pass; its numbers mean nothing.

Shared: hidden dim 16, Adam lr 0.01, strategy HA (the library default).
"""

HIDDEN = 16
LR = 0.01
SETUP_REPEATS = 4      # set-ups per untraced pass; setup_s is their median
REF_OPS = 8            # untraced reference operations inside a traced pass
LIMIT_MS = 50.0        # serve latency limit, from each request's due time

FULL = {
    "gcn_full": dict(model="gcn", vertices=40_000, warmup=3),
    "gat_full": dict(model="gat", vertices=4_000, warmup=3),
    "magnn_full": dict(model="magnn", movies=9_000, directors=1_800,
                       actors=6_000, max_instances_per_root=10, warmup=3),
    "stream_ondisk": dict(vertices=100_000, edges=2_000_000, feat_dim=64,
                          classes=16, rows_per_shard=8_192, batch_size=512,
                          fanouts=[10, 10], prefetch_depth=2, num_workers=2,
                          pool=1_536, warmup=1),
    "dist_proc": dict(vertices=40_000, k=2, warmup=3, side_epochs=6,
                      scale_times=False),
    "serve_mixed": dict(vertices=10_000, cache_bytes=512 * 1024, workers=2,
                        seeds_per_request=4, zipf=1.1,
                        rates=[200.0, 400.0, 800.0], writes=6,
                        edges_per_write=8, warm_requests=400,
                        closed_seconds=1.5, probes=40),
}

SMOKE = {
    "gcn_full": dict(model="gcn", vertices=600, warmup=2),
    "gat_full": dict(model="gat", vertices=300, warmup=2),
    "magnn_full": dict(model="magnn", movies=150, directors=30, actors=100,
                       max_instances_per_root=10, warmup=2),
    "stream_ondisk": dict(vertices=2_000, edges=20_000, feat_dim=16,
                          classes=4, rows_per_shard=512, batch_size=64,
                          fanouts=[5, 5], prefetch_depth=2, num_workers=2,
                          pool=128, warmup=1),
    "dist_proc": dict(vertices=600, k=2, warmup=2, side_epochs=2,
                      scale_times=False),
    "serve_mixed": dict(vertices=500, cache_bytes=24 * 1024, workers=2,
                        seeds_per_request=4, zipf=1.1,
                        rates=[100.0, 200.0, 400.0], writes=2,
                        edges_per_write=8, warm_requests=40,
                        closed_seconds=0.2, probes=5),
}

SMOKE_SECONDS = 0.4
SMOKE_SETUP_REPEATS = 2
SMOKE_REF_OPS = 2
#: probe size for the per-kernel ns/element numbers: a prefix of the
#: workload's own bottom-level index, capped so six kernels take ~1.5 s
KERNEL_EDGES = 200_000
KERNEL_DIM = 16
