"""Readout-parity kernel of the sampler's estimators, vectorized with numpy.

A Z-type word on a register of readout bits is a bitmask over the outcome
index; its eigenvalue at outcome ``i`` is ``(-1)**popcount(i & mask)``.
"""

from __future__ import annotations

import numpy as np


def pauli_eigs(indices: np.ndarray, z_mask: int) -> np.ndarray:
    """Eigenvalue (+1/-1) of a Z-type word at each computational outcome."""
    return 1.0 - 2.0 * (np.bitwise_count(indices & z_mask) & 1)


def backend_name() -> str:
    return "numpy"
