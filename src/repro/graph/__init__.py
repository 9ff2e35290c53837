"""``repro.graph`` — the graph-engine substrate (libgrape-lite substitute).

CSR/CSC graph storage with typed vertices, linear-time grouping by
vertex id (``group_by``, which every CSR/CSC, HDG and plan build uses)
and the flat positions of a set of id ranges (``range_positions``),
BFS levels (JK-Net's distance rings), random walks (PinSage), metapath
matching (MAGNN), PageRank neighborhoods, partitioners, and synthetic
graph generators standing in for the paper's datasets.
"""

from .generators import community_graph, heterogeneous_graph, power_law_graph
from .graph import Graph, group_by, range_positions
from .metrics import graph_summary
from .metapath import (
    Metapath,
    find_metapath_instances,
    match_length3_metapath,
)
from .pagerank import top_k_ppr_neighbors
from .partition import (
    balance_factor,
    edge_cut,
    hash_partition,
    pulp_partition,
    spectral_partition,
)
from .random_walk import select_top_k_per_owner, top_k_visited
from .traversal import bfs_levels, k_hop_neighbors

__all__ = [
    "Graph", "group_by", "range_positions",
    "bfs_levels", "k_hop_neighbors",
    "top_k_visited", "select_top_k_per_owner",
    "Metapath", "find_metapath_instances",
    "match_length3_metapath",
    "graph_summary",
    "top_k_ppr_neighbors",
    "hash_partition", "pulp_partition", "spectral_partition",
    "edge_cut", "balance_factor",
    "community_graph", "power_law_graph", "heterogeneous_graph",
]
