"""Hot statevector kernels, vectorized with numpy.

Pauli words are encoded as index-space bitmasks: ``x_mask`` marks sites with
an X or Y letter, ``z_mask`` marks Z or Y, and ``phase`` is ``1j**n_Y``.  A
word maps amplitude ``a[i]`` to ``phase * (-1)**popcount((i^x) & z) * a[i^x]``.
"""

from __future__ import annotations

import numpy as np


def _signs(v: np.ndarray) -> np.ndarray:
    """(-1)**popcount(v) elementwise, as float64."""
    return 1.0 - 2.0 * (np.bitwise_count(v) & 1)


def apply_word(amps: np.ndarray, x_mask: int, z_mask: int, phase: complex) -> np.ndarray:
    src = np.arange(amps.shape[0], dtype=np.int64) ^ x_mask
    return (phase * _signs(src & z_mask)) * amps[src]


def expect_word(amps: np.ndarray, x_mask: int, z_mask: int, phase: complex) -> complex:
    return complex(np.vdot(amps, apply_word(amps, x_mask, z_mask, phase)))


def pauli_eigs(indices: np.ndarray, z_mask: int) -> np.ndarray:
    """Eigenvalue (+1/-1) of a Z-type word at each computational outcome."""
    return _signs(indices & z_mask)


def backend_name() -> str:
    return "numpy"
