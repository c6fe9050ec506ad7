"""Pauli-word operator algebra and the exact statevector/ensemble kernel.

Bit-ordering convention, fixed here and used by every module: qubit 0 is the
most significant bit of the amplitude index, so a ket label ``|b0 b1 ...>``
read left to right is the binary amplitude index (``|10>`` of two qubits is
index 2).  Fresh ancillas are appended after the existing qubits, i.e. as
less significant bits, which is exactly ``np.kron(state, ancilla)``.

All values are immutable after construction and all operations are pure
functions returning new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Union

import numpy as np

from . import _kernels

NORM_TOL = 1e-12
PROB_TOL = 1e-12
IMAG_TOL = 1e-10
COEFF_TOL = 1e-15
# Largest register the statevector protocol runs on (star models and the
# teleport relay).  `qed` on a q = 20 star with all 19 receivers and both
# methods takes ~82 s and ~180 MB on a 2-core machine; every further qubit
# about doubles both.
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

    def _bitpos(self, site: int) -> int:
        return self.n_qubits - 1 - site

    @cached_property
    def x_mask(self) -> int:
        m = 0
        for site, letter in enumerate(self.letters):
            if letter in "XY":
                m |= 1 << self._bitpos(site)
        return m

    @cached_property
    def z_mask(self) -> int:
        m = 0
        for site, letter in enumerate(self.letters):
            if letter in "ZY":
                m |= 1 << self._bitpos(site)
        return m

    @cached_property
    def phase(self) -> complex:
        return 1j ** (self.letters.count("Y") % 4)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) <= {"I"}

    def commutes_with(self, other: "PauliString") -> bool:
        _check_qubits(self.n_qubits, other.n_qubits)
        anti = bin(self.x_mask & other.z_mask).count("1") + bin(
            self.z_mask & other.x_mask
        ).count("1")
        return anti % 2 == 0

    def __str__(self) -> str:
        return self.letters


def x_on(n_qubits: int, site: int) -> PauliString:
    return PauliString.from_map(n_qubits, {site: "X"})


def y_on(n_qubits: int, site: int) -> PauliString:
    return PauliString.from_map(n_qubits, {site: "Y"})


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
        # letters -> [coefficient, word]; the word object is kept, not rebuilt,
        # so its cached masks carry over to every sum it ends up in
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


@dataclass(frozen=True, eq=False)
class Branch:
    probability: float
    state: StateVector
    label: Any


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probabilistic mixture of statevectors with outcome labels."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("ensemble needs at least one branch")
        total = sum(b.probability for b in self.branches)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"branch probabilities sum to {total}, not 1")

    @property
    def n_qubits(self) -> int:
        return self.branches[0].state.n_qubits


Source = Union[StateVector, Ensemble]


def _check_qubits(expected: int, got: int) -> None:
    if expected != got:
        raise ValueError(f"qubit count mismatch: {expected} != {got}")


def apply_pauli(state: StateVector, word: PauliString) -> StateVector:
    """word . state; norm preserved."""
    _check_qubits(state.n_qubits, word.n_qubits)
    out = _kernels.apply_word(state.amplitudes, word.x_mask, word.z_mask, word.phase)
    return StateVector(state.n_qubits, out)


def _state_expectation(state: StateVector, obs: ObservableSum) -> complex:
    acc = 0.0 + 0.0j
    for coeff, word in obs.terms:
        acc += coeff * _kernels.expect_word(
            state.amplitudes, word.x_mask, word.z_mask, word.phase
        )
    return acc


def expectation(source: Source, obs: ObservableSum) -> float:
    """<obs> of a state or an ensemble; the offset contributes additively."""
    if isinstance(source, StateVector):
        _check_qubits(source.n_qubits, obs.n_qubits)
        val = _state_expectation(source, obs)
    else:
        _check_qubits(source.n_qubits, obs.n_qubits)
        val = sum(
            b.probability * _state_expectation(b.state, obs) for b in source.branches
        )
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(
            f"expectation has non-negligible imaginary part {val.imag:.3e}; "
            "operator not Hermitian?"
        )
    return val.real + obs.offset


def projective_measure(state: StateVector, sigma: PauliString) -> Ensemble:
    """Measure a +-1 Pauli word: branches labeled mu with P(mu) = (1 + mu w)/2.

    Zero-probability branches are dropped.
    """
    _check_qubits(state.n_qubits, sigma.n_qubits)
    if sigma.is_identity:
        raise ValueError("cannot measure the identity word")
    rotated = _kernels.apply_word(
        state.amplitudes, sigma.x_mask, sigma.z_mask, sigma.phase
    )
    branches = []
    for mu in (+1, -1):
        proj = 0.5 * (state.amplitudes + mu * rotated)
        p = float(np.vdot(proj, proj).real)
        if p > PROB_TOL:
            branches.append(Branch(p, StateVector(state.n_qubits, proj / np.sqrt(p)), mu))
    if len(branches) == 1:
        branches = [Branch(1.0, branches[0].state, branches[0].label)]
    return Ensemble(tuple(branches))


def conditional_rotation(
    state: StateVector, sigma: PauliString, theta: float, mu: int
) -> StateVector:
    """(cos theta) I - i mu (sin theta) sigma applied to the state."""
    if mu not in (-1, +1):
        raise ValueError("mu must be +1 or -1")
    _check_qubits(state.n_qubits, sigma.n_qubits)
    rotated = _kernels.apply_word(
        state.amplitudes, sigma.x_mask, sigma.z_mask, sigma.phase
    )
    out = np.cos(theta) * state.amplitudes - 1j * mu * np.sin(theta) * rotated
    return StateVector(state.n_qubits, out)


# --- statevector utilities ---

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def apply_gate_1q(state: StateVector, site: int, gate: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary at one site (reshape trick along the site axis)."""
    n = state.n_qubits
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range")
    t = state.amplitudes.reshape((2,) * n)
    t = np.moveaxis(t, site, 0).reshape(2, -1)
    t = gate @ t
    t = np.moveaxis(t.reshape((2,) + (2,) * (n - 1)), 0, site)
    return StateVector(n, t.reshape(-1))


def inner(a: StateVector, b: StateVector) -> complex:
    _check_qubits(a.n_qubits, b.n_qubits)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(inner(a, b))


def pure_trace_distance(a: StateVector, b: StateVector) -> float:
    """Trace distance of two pure states, sqrt(1 - |<a|b>|^2).

    Computed as the norm of b's component orthogonal to a, which avoids
    the catastrophic cancellation of evaluating 1 - |<a|b>|^2 directly for
    nearly identical states.
    """
    c = inner(a, b)
    return float(np.linalg.norm(b.amplitudes - c * a.amplitudes))
