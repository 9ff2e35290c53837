"""Communication planning: dependency stats, batching and overlap (§5).

Given the HDGs and a partition assignment, this module computes, per
worker and layer, what must cross the network:

* **naive** plan — every remote leaf feature is fetched individually,
  then aggregation starts (the dataflow-style baseline Euler uses: "starts
  the Aggregate operation after all required features are synchronized");
* **batched** plan — features bound for the same worker travel in one
  assembled message (always available, even for non-commutative
  aggregators);
* **pipelined** plan — additionally applies *partial aggregation*: the
  sender pre-reduces, per (root, remote partition), everything it owns
  into a single ``dim``-sized message, and the receiver overlaps its local
  partial aggregation with the transfer.  Valid only when the bottom-level
  aggregation function is commutative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hdg import HDG
from ..obs import event as _obs_event
from .comm import CommConfig, SimulatedComm

__all__ = ["DependencyStats", "dependency_stats", "CommPlan",
           "plan_layer_comm"]


@dataclass
class DependencyStats:
    """Cross-partition dependency counts for one HDG + partition."""

    k: int
    #: remote bottom-level edges per pair — the per-root feature
    #: collection of the straightforward path ("first collect features of
    #: its 1-hop neighbors at other partitions"); drives naive/batched
    remote_edges_per_pair: np.ndarray    # (k, k) counts, [dst_worker, src_worker]
    #: unique (worker, remote leaf vertex) pairs (analysis/diagnostics)
    remote_leaves_per_pair: np.ndarray   # (k, k)
    #: unique (root, remote partition) pairs; drives partial aggregation
    partial_messages_per_pair: np.ndarray  # (k, k)
    #: bottom-level edge counts whose leaf is local vs remote, per worker
    local_edges: np.ndarray              # (k,)
    remote_edges: np.ndarray             # (k,)


def dependency_stats(hdg: HDG, labels: np.ndarray, k: int) -> DependencyStats:
    """Vectorized cross-partition dependency accounting."""
    labels = np.asarray(labels, dtype=np.int64)
    root_per_edge = hdg.root_of_leaf_edges()          # root order per edge
    root_vertex = hdg.roots[root_per_edge]            # global root id
    leaf_vertex = hdg.leaf_vertices
    w_root = labels[root_vertex]
    w_leaf = labels[leaf_vertex]
    remote = w_root != w_leaf

    remote_edge_pairs = np.zeros((k, k), dtype=np.int64)
    remote_leaves = np.zeros((k, k), dtype=np.int64)
    partial_msgs = np.zeros((k, k), dtype=np.int64)
    local_edges = np.zeros(k, dtype=np.int64)
    remote_edges = np.zeros(k, dtype=np.int64)

    np.add.at(local_edges, w_root[~remote], 1)
    np.add.at(remote_edges, w_root[remote], 1)

    if remote.any():
        dst_w = w_root[remote]
        src_w = w_leaf[remote]
        np.add.at(remote_edge_pairs.reshape(-1), dst_w * k + src_w, 1)
        # Unique (dst worker, src worker, leaf) triples -> dedup fetch counts.
        leaf = leaf_vertex[remote]
        triple = (dst_w * k + src_w) * hdg.num_input_vertices + leaf
        uniq = np.unique(triple)
        pair = uniq // hdg.num_input_vertices
        np.add.at(remote_leaves.reshape(-1), pair, 1)
        # Unique (root, src worker) pairs -> partial-aggregation messages.
        root = root_vertex[remote]
        pair2 = root.astype(np.int64) * k + src_w
        uniq2 = np.unique(pair2)
        dst_of = labels[uniq2 // k]
        src_of = uniq2 % k
        np.add.at(partial_msgs.reshape(-1), dst_of * k + src_of, 1)
    return DependencyStats(
        k, remote_edge_pairs, remote_leaves, partial_msgs, local_edges, remote_edges
    )


@dataclass
class CommPlan:
    """Per-worker modeled communication seconds for one layer."""

    mode: str
    per_worker_seconds: np.ndarray
    total_bytes: float
    total_messages: int
    #: True when comm may overlap the worker's local partial aggregation
    overlaps_compute: bool


def plan_layer_comm(
    stats: DependencyStats,
    feat_bytes: int,
    config: CommConfig,
    mode: str = "pipelined",
    commutative: bool = True,
) -> CommPlan:
    """Model one layer's communication under a synchronization plan.

    Parameters
    ----------
    stats:
        Output of :func:`dependency_stats`.
    feat_bytes:
        Bytes of one vertex feature row at this layer (dim * 8).
    mode:
        ``naive`` | ``batched`` | ``pipelined``.
    commutative:
        Whether the bottom-level aggregator admits partial aggregation;
        a pipelined plan falls back to batching when it does not (§5).
    """
    k = stats.k
    comm = SimulatedComm(k, config)
    if mode == "pipelined" and not commutative:
        mode_effective = "batched"
    else:
        mode_effective = mode
    if mode_effective not in ("naive", "batched", "pipelined"):
        raise ValueError(f"unknown comm mode {mode!r}")
    # Pipelined applies partial aggregation: one dim-sized value per
    # (root, remote partition).  Naive and batched ship the per-root
    # remote leaf features of §5's straightforward collection.
    overlaps = mode_effective == "pipelined"
    counts = (stats.partial_messages_per_pair if overlaps
              else stats.remote_edges_per_pair)
    for dst in range(k):
        for src in range(k):
            count = int(counts[dst, src])
            if not count:
                continue
            if mode_effective == "naive":
                # one message per remote leaf feature *per root*
                comm.send(src, dst, count * feat_bytes, messages=count)
            else:
                # everything bound for the same (src, dst) pair travels
                # in one assembled message
                comm.send(src, dst, count * feat_bytes, messages=1)
    _obs_event(
        "comm.plan",
        mode=mode_effective,
        requested_mode=mode,
        bytes=comm.total_bytes,
        messages=comm.total_messages,
        overlaps_compute=overlaps,
    )
    return CommPlan(
        mode=mode_effective,
        per_worker_seconds=comm.step_times(),
        total_bytes=comm.total_bytes,
        total_messages=comm.total_messages,
        overlaps_compute=overlaps,
    )
