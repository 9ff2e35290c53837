"""``repro.core`` — FlexGraph's primary contribution.

The NAU programming abstraction, hierarchical dependency graphs with the
compact storage of §4.1, hybrid aggregation execution (§4.2), the
single-machine execution engine, and the ADB workload balancer (§5-6).
"""

from .aggregation import (
    Aggregator,
    AttentionAggregator,
    LSTMAggregator,
    MaxAggregator,
    MeanAggregator,
    MinAggregator,
    SumAggregator,
    WeightedSumAggregator,
    get_aggregator,
)
from .balancer import (
    REBALANCE_EVENT,
    ADBBalancer,
    BalancePlan,
    induced_dependency_edges,
)
from .cost_model import (
    DRIFT_EVENT,
    DRIFT_GAUGE,
    R_SQUARED_GAUGE,
    CostModel,
    metrics_from_hdg,
)
from .dynamic import MetapathHDGMaintainer, instances_through_edges
from .engine import EpochStats, FlexGraphEngine, StageTimes
from .hetero import TypeProjection
from .hdg import (
    HDG,
    MemmapHDG,
    build_hdg,
    hdg_from_flat_arrays,
    hdg_from_graph,
    hdg_from_instance_arrays,
)
from .hybrid import ExecutionStrategy, hierarchical_aggregate
from .nau import GNNLayer, NAUModel, SelectionScope
from .sampling import MiniBatchEpochStats, MiniBatchTrainer
from .step import (
    CompactBlocks,
    ModelHDGs,
    Partition,
    build_block,
    build_seed_blocks,
    check_block_source,
    compact_blocks,
    edge_scores,
    link_loss,
    node_loss,
    run_local_blocks,
    sample_blocks,
    sample_fanout,
    train_step,
)
from .schema import NeighborRecord, SchemaTree
from .validate import HDGInvariantError, hdg_summary, validate_hdg
from .selection import (
    build_metapath_hdg,
    schema_for_metapaths,
    schema_for_rings,
    select_anchor_set_neighbors,
    select_direct_neighbors,
    select_distance_ring_neighbors,
    select_metapath_neighbors,
    select_pinsage_neighbors,
)

__all__ = [
    "SchemaTree", "NeighborRecord",
    "HDG", "MemmapHDG", "build_hdg", "hdg_from_graph", "hdg_from_flat_arrays",
    "hdg_from_instance_arrays", "build_metapath_hdg",
    "GNNLayer", "NAUModel", "SelectionScope",
    "ExecutionStrategy", "hierarchical_aggregate",
    "Aggregator", "SumAggregator", "MeanAggregator", "MaxAggregator",
    "MinAggregator", "WeightedSumAggregator", "AttentionAggregator",
    "LSTMAggregator",
    "get_aggregator",
    "FlexGraphEngine", "StageTimes", "EpochStats",
    "MiniBatchTrainer", "MiniBatchEpochStats",
    "ModelHDGs", "check_block_source", "sample_fanout", "build_block",
    "build_seed_blocks", "CompactBlocks", "compact_blocks", "sample_blocks",
    "run_local_blocks", "Partition", "train_step", "node_loss",
    "edge_scores", "link_loss",
    "validate_hdg", "hdg_summary", "HDGInvariantError",
    "MetapathHDGMaintainer", "instances_through_edges",
    "TypeProjection",
    "CostModel", "metrics_from_hdg", "R_SQUARED_GAUGE",
    "DRIFT_GAUGE", "DRIFT_EVENT",
    "ADBBalancer", "BalancePlan", "induced_dependency_edges", "REBALANCE_EVENT",
    "select_direct_neighbors", "select_pinsage_neighbors",
    "select_metapath_neighbors", "select_anchor_set_neighbors",
    "select_distance_ring_neighbors",
    "schema_for_metapaths", "schema_for_rings",
]
