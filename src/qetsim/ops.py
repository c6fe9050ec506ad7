"""The package's shared constants and its degenerate-ground error.

Bit-ordering convention, fixed here and used by every module: qubit 0 is the
most significant bit of the amplitude index, so a ket label ``|b0 b1 ...>``
read left to right is the binary amplitude index (``|10>`` of two qubits is
index 2).  Fresh ancillas are appended after the existing qubits, i.e. as
less significant bits, which is exactly ``np.kron(state, ancilla)``.
"""

from __future__ import annotations

# Largest star q.  The protocol pass holds the receivers as their |R| + 1
# Dicke states: `qed` at q = 20 with all 19 receivers and both methods takes
# 6.5-7.5 ms in-process after numpy's import, at a 30 MB peak on 2 vCPU.
MAX_STATEVECTOR_QUBITS = 20


class DegenerateGroundError(ValueError):
    """Raised when a ground space is (numerically) degenerate."""
