"""Schema trees — the shape of every HDG.

A *schema tree* (Section 3.1) encodes the hierarchy of neighbor **types**
a GNN model defines: the root stands for the target vertex and each leaf
is one neighbor type (e.g. MAGNN's metapath types MP1/MP2).  Every root
vertex shares one global schema tree, which is why FlexGraph stores it
once (Section 4.1, "Subgraphs for schema trees").

The neighbor instances FlexGraph's NeighborSelection stage emits,
``(root, nei = [leaf_0..leaf_n], nei_type)``, are not records but four
parallel arrays, ``(instance_roots, instance_types, leaf_flat,
leaf_counts)``; :func:`~repro.core.hdg.hdg_from_instance_arrays` packs
them under a schema tree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SchemaTree"]


@dataclass(frozen=True)
class SchemaTree:
    """Root plus an ordered tuple of leaf neighbor types.

    All GNN models in the paper use depth-1 schema trees (root -> leaf
    types); flat models (GCN, PinSage) degenerate to a single ``vertex``
    leaf, which the paper writes as ``T = v``.
    """

    leaf_types: tuple[str, ...] = ("vertex",)
    name: str = "root"

    def __post_init__(self):
        if not self.leaf_types:
            raise ValueError("schema tree needs at least one leaf type")
        if len(set(self.leaf_types)) != len(self.leaf_types):
            raise ValueError("leaf type names must be unique")
        object.__setattr__(self, "leaf_types", tuple(self.leaf_types))

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_types)

    @property
    def is_trivial(self) -> bool:
        """True when the tree is ``T = v`` (single neighbor type)."""
        return self.num_leaves == 1

    def leaf_index(self, type_name: str) -> int:
        """Index of a leaf type by name."""
        try:
            return self.leaf_types.index(type_name)
        except ValueError:
            raise KeyError(f"unknown neighbor type {type_name!r}; have {self.leaf_types}") from None

    @property
    def nbytes(self) -> int:
        """Storage for the single global tree: one int per node."""
        return 8 * (1 + self.num_leaves)

