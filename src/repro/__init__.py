"""FlexGraph reproduction — *FlexGraph: A Flexible and Efficient
Distributed Framework for GNN Training* (EuroSys '21).

Packages
--------
``repro.tensor``
    Numpy autograd NN framework (the PyTorch substitute).
``repro.graph``
    Graph engine: CSR/CSC storage, BFS, random walks, metapath
    matching, partitioners, synthetic generators (libgrape-lite
    substitute).
``repro.core``
    The paper's contribution: NAU, HDGs with compact storage, hybrid
    aggregation execution, the training engine, the ADB balancer.
``repro.models``
    GCN / GIN / GAT / GraphSAGE (DNFA), PinSage (INFA), MAGNN / P-GNN /
    JK-Net (INHA) as NAU programs.
``repro.baselines``
    PyTorch / DGL / DistDGL / Euler / Pre+DGL competitor strategies.
``repro.distributed``
    Distributed training over partitions: one rank program run either
    in one process with a modeled network (the scaling experiments) or
    on real worker processes; workload balancing, pipeline processing,
    fault tolerance.
``repro.loader``
    The staged streaming minibatch pipeline (sample, gather)
    with a bounded prefetch window.
``repro.storage``
    The on-disk dataset format and model checkpoints.
``repro.tasks``
    Link prediction and vertex clustering over GNN embeddings.
``repro.datasets``
    Synthetic stand-ins for Reddit, FB91, Twitter and IMDB.
``repro.obs``
    Unified observability layer: spans, counters/gauges (total + peak),
    events, JSON trace export and summary tables.
``repro.serve``
    Online inference serving: sessions over pinned checkpoints/graphs,
    micro-batching, an embedding cache with targeted invalidation,
    load-shedding server.

Quickstart
----------
>>> from repro.datasets import load_dataset
>>> from repro.models import gcn
>>> from repro.core import FlexGraphEngine
>>> from repro.tensor import Tensor, Adam
>>> ds = load_dataset("reddit", scale="tiny")
>>> model = gcn(ds.feat_dim, 32, ds.num_classes)
>>> engine = FlexGraphEngine(model, ds.graph)
>>> opt = Adam(model.parameters(), lr=0.01)
>>> history = engine.fit(Tensor(ds.features), ds.labels, opt,
...                      num_epochs=5, mask=ds.train_mask)
"""

__version__ = "1.0.0"

from . import (
    baselines,
    core,
    datasets,
    distributed,
    graph,
    loader,
    models,
    obs,
    serve,
    storage,
    tasks,
    tensor,
)

__all__ = [
    "tensor", "graph", "core", "models", "baselines", "distributed",
    "datasets", "loader", "storage", "tasks", "obs", "serve", "__version__",
]
