"""Workload name -> the module whose ``untraced(ctx)`` / ``traced(ctx)``
run it.  The names are those of ``BENCHMARK.json``."""

from . import dist, fullgraph, serve, stream

WORKLOADS = {
    "gcn_full": fullgraph,
    "gat_full": fullgraph,
    "magnn_full": fullgraph,
    "stream_ondisk": stream,
    "dist_proc": dist,
    "serve_mixed": serve,
}
