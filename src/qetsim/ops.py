"""The package's shared constants and its degenerate-ground error.

Bit-ordering convention, fixed here and used by every module: qubit 0 is the
most significant bit of the amplitude index, so a ket label ``|b0 b1 ...>``
read left to right is the binary amplitude index (``|10>`` of two qubits is
index 2).  Fresh ancillas are appended after the existing qubits, i.e. as
less significant bits, which is exactly ``np.kron(state, ancilla)``.
"""

from __future__ import annotations

# Largest star (and teleport register).  The protocol pass reaches 2^q cells
# only with every receiver in R: `qed` on a q = 20 star with all 19 receivers
# and both methods takes ~1.1 s and ~135 MB in-process on a 2-core machine;
# every further qubit about doubles both.
MAX_STATEVECTOR_QUBITS = 20


class DegenerateGroundError(ValueError):
    """Raised when a ground space is (numerically) degenerate."""
