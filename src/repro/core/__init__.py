"""``repro.core`` — FlexGraph's primary contribution.

The NAU programming abstraction, hierarchical dependency graphs with the
compact storage of §4.1, hybrid aggregation execution (§4.2), the
single-machine execution engine, and the ADB workload balancer (§5-6).
"""

from .aggregation import Aggregator
from .balancer import ADBBalancer, BalancePlan, induced_dependency_edges
from .cost_model import CostModel, metrics_from_hdg
from .engine import EpochStats, FlexGraphEngine, StageTimes
from .hdg import HDG, build_hdg, hdg_from_flat_arrays
from .hybrid import ExecutionStrategy, hierarchical_aggregate
from .nau import (
    GNNLayer,
    LinearUpdateLayer,
    NAUModel,
    SelectionScope,
    layer_dims,
    stack_layers,
)
from .sampling import MiniBatchEpochStats, MiniBatchTrainer
from .step import (
    CompactBlocks,
    ModelHDGs,
    Partition,
    build_block,
    build_seed_blocks,
    compact_blocks,
    edge_scores,
    link_loss,
    node_loss,
    run_local_blocks,
    sample_blocks,
    train_step,
)
from .schema import NeighborRecord, SchemaTree
from .validate import HDGInvariantError, validate_hdg
from .selection import (
    build_metapath_hdg,
    reselect_metapath_hdg,
    schema_for_metapaths,
    schema_for_rings,
    select_anchor_set_neighbors,
    select_distance_ring_neighbors,
    select_metapath_neighbors,
)

__all__ = [
    "SchemaTree", "NeighborRecord",
    "HDG", "build_hdg", "hdg_from_flat_arrays", "build_metapath_hdg",
    "GNNLayer", "LinearUpdateLayer", "NAUModel", "SelectionScope",
    "layer_dims", "stack_layers",
    "ExecutionStrategy", "hierarchical_aggregate",
    "Aggregator",
    "FlexGraphEngine", "StageTimes", "EpochStats",
    "MiniBatchTrainer", "MiniBatchEpochStats",
    "ModelHDGs", "build_block",
    "build_seed_blocks", "CompactBlocks", "compact_blocks", "sample_blocks",
    "run_local_blocks", "Partition", "train_step", "node_loss",
    "edge_scores", "link_loss",
    "validate_hdg", "HDGInvariantError",
    "CostModel", "metrics_from_hdg",
    "ADBBalancer", "BalancePlan", "induced_dependency_edges",
    "select_metapath_neighbors", "select_anchor_set_neighbors",
    "select_distance_ring_neighbors",
    "schema_for_metapaths", "schema_for_rings", "reselect_metapath_hdg",
]
