"""Instance arrays written out by hand, for tests that build HDGs."""

import numpy as np


def instance_arrays(instances):
    """``(instance_roots, instance_types, leaf_flat, leaf_counts)`` — the
    arrays :func:`~repro.core.hdg.hdg_from_instance_arrays` takes — of
    ``(root, leaves, type)`` tuples, in their order."""
    roots = np.array([root for root, _, _ in instances], dtype=np.int64)
    types = np.array([t for _, _, t in instances], dtype=np.int64)
    counts = np.array([len(leaves) for _, leaves, _ in instances],
                      dtype=np.int64)
    flat = np.array([v for _, leaves, _ in instances for v in leaves],
                    dtype=np.int64)
    return roots, types, flat, counts
