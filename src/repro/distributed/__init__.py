"""``repro.distributed`` — simulated shared-nothing distributed training.

Real per-worker computation (sliced HDG aggregation, measured with wall
clocks) combined with an alpha-beta network model: workload balancing,
batching, partial aggregation and pipeline overlap all act on genuine
quantities (§5).  One rank program (``rank.py``) runs under both the
simulated and the multi-process trainer.
"""

from .cluster import ScalingPoint, flexgraph_scaling, model_baseline_scaling
from .fault_tolerance import (
    CheckpointManager,
    FaultTolerantTrainer,
    RecoveryEvent,
    WorkerFailure,
)
from .comm import (
    CommConfig,
    CommPlan,
    DependencyStats,
    dependency_stats,
    plan_layer_comm,
)
from .kvstore import KVStore, SharedArray
from .runtime import MultiprocessEpochStats, MultiprocessTrainer
from .trainer import DistributedEpochStats, DistributedTrainer

__all__ = [
    "CommConfig",
    "KVStore", "SharedArray",
    "MultiprocessTrainer", "MultiprocessEpochStats",
    "DependencyStats", "dependency_stats", "CommPlan", "plan_layer_comm",
    "DistributedTrainer", "DistributedEpochStats",
    "ScalingPoint", "flexgraph_scaling", "model_baseline_scaling",
    "CheckpointManager", "FaultTolerantTrainer", "WorkerFailure",
    "RecoveryEvent",
]
