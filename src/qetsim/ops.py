"""Pauli-word operator algebra and the statevector type of the relay.

Bit-ordering convention, fixed here and used by every module: qubit 0 is the
most significant bit of the amplitude index, so a ket label ``|b0 b1 ...>``
read left to right is the binary amplitude index (``|10>`` of two qubits is
index 2).  Fresh ancillas are appended after the existing qubits, i.e. as
less significant bits, which is exactly ``np.kron(state, ancilla)``.

All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

NORM_TOL = 1e-12
COEFF_TOL = 1e-15
# Largest star (and teleport register).  The protocol pass reaches 2^q cells
# only with every receiver in R: `qed` on a q = 20 star with all 19 receivers
# and both methods takes ~2 s and ~135 MB in-process on a 2-core machine;
# every further qubit about doubles both.
MAX_STATEVECTOR_QUBITS = 20

_LETTERS = "IXYZ"


class DegenerateGroundError(ValueError):
    """Raised when a ground space is (numerically) degenerate."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Pauli letters, one per qubit."""

    n_qubits: int
    letters: str

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if len(self.letters) != self.n_qubits:
            raise ValueError(
                f"letters length {len(self.letters)} != n_qubits {self.n_qubits}"
            )
        bad = set(self.letters) - set(_LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters: {sorted(bad)}")

    @classmethod
    def from_map(cls, n_qubits: int, ops: dict[int, str]) -> "PauliString":
        letters = ["I"] * n_qubits
        for site, letter in ops.items():
            if not 0 <= site < n_qubits:
                raise ValueError(f"site {site} out of range for {n_qubits} qubits")
            letters[site] = letter
        return cls(n_qubits, "".join(letters))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, "I" * n_qubits)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) <= {"I"}

    def __str__(self) -> str:
        return self.letters


def x_on(n_qubits: int, site: int) -> PauliString:
    return PauliString.from_map(n_qubits, {site: "X"})


def z_on(n_qubits: int, site: int) -> PauliString:
    return PauliString.from_map(n_qubits, {site: "Z"})


@dataclass(frozen=True)
class ObservableSum:
    """Hermitian operator as real-weighted Pauli words plus a scalar offset.

    Construction canonicalizes: duplicate words are merged, identity words
    fold into the offset, and coefficients below 1e-15 are dropped, so
    equality of operators is decidable.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        # letters -> [coefficient, word]
        merged: dict[str, list] = {}
        offset = float(self.offset)
        for coeff, word in self.terms:
            if abs(complex(coeff).imag) > 0:
                raise ValueError("coefficients must be real (Hermiticity)")
            _check_qubits(self.n_qubits, word.n_qubits)
            if word.is_identity:
                offset += float(coeff)
            else:
                merged.setdefault(word.letters, [0.0, word])[0] += float(coeff)
        canon = tuple(
            (c, w) for _, (c, w) in sorted(merged.items()) if abs(c) > COEFF_TOL
        )
        object.__setattr__(self, "terms", canon)
        object.__setattr__(self, "offset", offset)

    def __add__(self, other: "ObservableSum") -> "ObservableSum":
        _check_qubits(self.n_qubits, other.n_qubits)
        return ObservableSum(
            self.n_qubits, self.terms + other.terms, self.offset + other.offset
        )

    def isclose(self, other: "ObservableSum", tol: float = 1e-12) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        if abs(self.offset - other.offset) > tol:
            return False
        a = {w.letters: c for c, w in self.terms}
        b = {w.letters: c for c, w in other.terms}
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in set(a) | set(b))


def single_term(coeff: float, word: PauliString, offset: float = 0.0) -> ObservableSum:
    return ObservableSum(word.n_qubits, ((coeff, word),), offset)


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


def _check_qubits(expected: int, got: int) -> None:
    if expected != got:
        raise ValueError(f"qubit count mismatch: {expected} != {got}")
