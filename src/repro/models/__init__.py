"""``repro.models`` — GNN models expressed as NAU programs.

One model per category of the paper's 2-D taxonomy (Section 2.2), plus
the extra INHA models its discussion covers:

========  ========================  =====================================
category  model                     neighborhood / aggregation
========  ========================  =====================================
DNFA      :func:`gcn`, :func:`gin`  direct 1-hop neighbors, flat sum
DNFA      :func:`gat`               direct 1-hop neighbors, flat attention
DNFA      :func:`graphsage`         direct 1-hop neighbors, transform-then-max
INFA      :func:`pinsage`           random-walk top-k, flat weighted sum
INHA      :func:`magnn`             metapath instances, mean/attn/mean
INHA      :func:`pgnn`              anchor sets, mean/mean
INHA      :func:`jknet`             distance rings, mean/max
========  ========================  =====================================
"""

from .gat import GAT, gat
from .gcn import GCN, gcn
from .gin import GIN, gin
from .jknet import JKNet, jknet
from .magnn import MAGNN, default_metapaths, magnn
from .pgnn import PGNN, pgnn
from .pinsage import PinSage, pinsage
from .sage import GraphSAGE, graphsage

__all__ = [
    "GCN", "gcn",
    "GAT", "gat",
    "GIN", "gin",
    "PinSage", "pinsage",
    "MAGNN", "magnn", "default_metapaths",
    "PGNN", "pgnn",
    "JKNet", "jknet",
    "GraphSAGE", "graphsage",
]
