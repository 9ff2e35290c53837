"""``repro.baselines`` — re-implementations of the paper's competitors.

Each engine reproduces the *algorithmic strategy* the paper attributes to
one baseline system, over the same numpy substrate FlexGraph uses.  Every
engine trains the one ``repro.models`` model FlexGraph trains; the
engines differ only in NeighborSelection and Aggregation:

==============  =========================================================
engine          strategy
==============  =========================================================
``pytorch``     pure sparse tensor ops; walks & metapaths simulated with
                tensor ops; re-selects neighbors every epoch
``dgl``         full-graph SAGA-NN with kernel fusion
``distdgl``     DGL math + mini-batch full-k-hop-neighborhood training
``euler``       mini-batch sampling framework with a fast (Gremlin-like)
                query engine; sparse-op aggregation
``pre+dgl``     GAS ops over a pre-computed expanded graph (Table 3)
``neugraph``    chunk-at-a-time whole-graph SAGA-NN (§8; extension —
                the paper had no public implementation to compare)
``flexgraph``   the real thing, adapted to the same interface
==============  =========================================================
"""

from .common import BaselineEngine, EpochReport
from .flexgraph_adapter import FlexGraphAdapter
from .minibatch import EulerEngine
from .neugraph import NeuGraphEngine
from .pre_expanded import PreDGLEngine
from .saga_nn import DGLEngine, DistDGLEngine
from .sparse_engine import PyTorchEngine

ENGINES = {
    "pytorch": PyTorchEngine,
    "neugraph": NeuGraphEngine,
    "dgl": DGLEngine,
    "distdgl": DistDGLEngine,
    "euler": EulerEngine,
    "pre+dgl": PreDGLEngine,
    "flexgraph": FlexGraphAdapter,
}

__all__ = [
    "BaselineEngine", "EpochReport",
    "DGLEngine", "DistDGLEngine", "EulerEngine",
    "PreDGLEngine", "FlexGraphAdapter", "NeuGraphEngine",
    "ENGINES",
]
