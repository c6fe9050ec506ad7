"""The package's shared constants, its degenerate-ground error and the
statevector type of the relay.

Bit-ordering convention, fixed here and used by every module: qubit 0 is the
most significant bit of the amplitude index, so a ket label ``|b0 b1 ...>``
read left to right is the binary amplitude index (``|10>`` of two qubits is
index 2).  Fresh ancillas are appended after the existing qubits, i.e. as
less significant bits, which is exactly ``np.kron(state, ancilla)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

NORM_TOL = 1e-12
# Largest star (and teleport register).  The protocol pass reaches 2^q cells
# only with every receiver in R: `qed` on a q = 20 star with all 19 receivers
# and both methods takes ~1.1 s and ~135 MB in-process on a 2-core machine;
# every further qubit about doubles both.
MAX_STATEVECTOR_QUBITS = 20


class DegenerateGroundError(ValueError):
    """Raised when a ground space is (numerically) degenerate."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over n qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got {amps.shape}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, label: Union[int, str]) -> "StateVector":
        index = int(label, 2) if isinstance(label, str) else label
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)
