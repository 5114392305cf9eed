"""The mask-chained rate map, kept as a test oracle for `build_rate_map`.

``chained_rate_map`` reads the contact masks alone: node j at rung i maps
to rung i - k, where k is the length of the run of contacts at node j
directly above rung i.  `build_rate_map` reads the thresholds instead, so
the two agree exactly where every mask row is up-closed.
"""

from __future__ import annotations

import numpy as np


def chained_rate_map(surface) -> np.ndarray:
    """Equivalent maximum rate on the lattice, (n+1) x (n_x+1), chained
    upward through the contact masks."""
    masks = surface.masks
    run = np.zeros(masks.shape[1], dtype=np.int64)
    out = np.empty(masks.shape)
    out[0] = surface.rates[0]
    for i in range(1, masks.shape[0]):
        run = np.where(masks[i], run + 1, 0)
        out[i] = surface.rates[i - run]
    return out
