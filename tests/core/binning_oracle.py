"""Scalar reference for the paper's capacity classes.

The analyses bin capacities through
:func:`repro.core.binning.capacity_class_spec` (``BinSpec.index_of`` and
``index_of_array``). :func:`capacity_class` computes the class of one
capacity from its logarithm instead, repaired against the exact class
edges; ``test_binning.py`` holds the spec to it at every edge.
"""

from __future__ import annotations

import math

from repro.core.binning import CAPACITY_CLASS_BASE_MBPS
from repro.exceptions import BinningError


def capacity_class(capacity_mbps: float) -> int:
    """The paper's capacity class ``k`` for a download capacity in Mbps.

    Class ``k`` covers ``(100 kbps * 2^(k-1), 100 kbps * 2^k]``; capacities
    at or below 100 kbps fall in class 1 by convention (the paper's datasets
    contain essentially no sub-100 kbps broadband users).
    """
    if capacity_mbps <= 0:
        raise BinningError(f"capacity must be positive, got {capacity_mbps}")
    ratio = capacity_mbps / CAPACITY_CLASS_BASE_MBPS
    if ratio <= 1.0:
        return 1
    k = max(1, math.ceil(math.log2(ratio)))
    # log2 rounds edge-adjacent values (within an ulp of a class edge) onto
    # the edge itself, so repair the estimate against the exact bounds the
    # bins use; this keeps capacity_class consistent with
    # capacity_class_bounds / BinSpec membership at every edge.
    while capacity_mbps > CAPACITY_CLASS_BASE_MBPS * 2**k:
        k += 1
    while k > 1 and capacity_mbps <= CAPACITY_CLASS_BASE_MBPS * 2 ** (k - 1):
        k -= 1
    return k
