"""HDG invariant checking — debugging aid and property-test oracle.

:func:`validate_hdg` verifies every structural invariant the compact
storage of §4.1 relies on.  It is a pure inspection (never mutates).
"""

from __future__ import annotations

import numpy as np

from .hdg import HDG

__all__ = ["validate_hdg", "HDGInvariantError"]


class HDGInvariantError(AssertionError):
    """An HDG structural invariant was violated."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise HDGInvariantError(message)


def validate_hdg(hdg: HDG) -> None:
    """Check all structural invariants; raises :class:`HDGInvariantError`.

    Invariants checked:

    * offsets are monotone and exactly cover their payload arrays;
    * every leaf id is a valid input-graph vertex;
    * weights (if present) align with leaf edges and are non-negative;
    * depth-3: the elided in-between Dst is consistent — instance ids are
      consecutive per slot, slots per root equal the schema leaf count;
    * root ids are unique.
    """
    _require(np.unique(hdg.roots).size == hdg.roots.size, "duplicate root ids")
    _require(
        bool(np.all(np.diff(hdg.leaf_offsets) >= 0)), "leaf_offsets not monotone"
    )
    _require(
        int(hdg.leaf_offsets[-1]) == hdg.leaf_vertices.size,
        "leaf_offsets do not cover leaf_vertices",
    )
    if hdg.leaf_vertices.size:
        _require(int(hdg.leaf_vertices.min()) >= 0, "negative leaf vertex id")
        _require(
            int(hdg.leaf_vertices.max()) < hdg.num_input_vertices,
            "leaf vertex id outside the input graph",
        )
    if hdg.leaf_weights is not None:
        _require(
            hdg.leaf_weights.size == hdg.leaf_vertices.size,
            "weights misaligned with leaf edges",
        )
        _require(bool(np.all(hdg.leaf_weights >= 0)), "negative leaf weight")
    if hdg.depth == 1:
        _require(
            hdg.leaf_offsets.size == hdg.num_roots + 1,
            "flat HDG: one offset range per root required",
        )
        return
    _require(
        hdg.instance_offsets.size == hdg.num_slots + 1,
        "instance_offsets do not match the slot count",
    )
    _require(
        bool(np.all(np.diff(hdg.instance_offsets) >= 0)),
        "instance_offsets not monotone",
    )
    _require(
        int(hdg.instance_offsets[-1]) == hdg.num_instances,
        "instance_offsets do not cover the instances",
    )
    # The elided Dst2: sub_graph(2) sources must be 0..num_instances-1 in
    # order (this is what makes omitting the array sound).
    _dst, src = hdg.sub_graph(2)
    _require(
        bool(np.array_equal(src, np.arange(hdg.num_instances))),
        "in-between sources are not consecutive (elided Dst unsound)",
    )
    # Instance bookkeeping consistency.
    _require(
        hdg.instance_types().size == hdg.num_instances,
        "instance types misaligned",
    )
    _require(
        int(hdg.instance_roots().max(initial=-1)) < hdg.num_roots,
        "instance root order out of range",
    )
