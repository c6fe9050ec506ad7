"""Independent dense-matrix oracles used by the tests.

Everything here is built directly from 2x2 numpy arrays and np.kron so the
checks do not share code paths with the package's Pauli-word kernels.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from qetsim.model import DEGENERACY_TOL, GroundSolution
from qetsim.ops import (
    HADAMARD,
    DegenerateGroundError,
    StateVector,
    apply_gate_1q,
    apply_pauli,
    pure_trace_distance,
    x_on,
    z_on,
)

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def op_on(letter: str, site: int, n: int) -> np.ndarray:
    M = np.eye(1, dtype=complex)
    for j in range(n):
        M = np.kron(M, PAULI[letter] if j == site else I2)
    return M


def word_matrix(letters: str) -> np.ndarray:
    M = np.eye(1, dtype=complex)
    for letter in letters:
        M = np.kron(M, PAULI[letter])
    return M


def dense_observable(obs) -> np.ndarray:
    """Dense matrix of a package ObservableSum, built via np.kron."""
    dim = 2**obs.n_qubits
    M = obs.offset * np.eye(dim, dtype=complex)
    for coeff, word in obs.terms:
        M += coeff * word_matrix(word.letters)
    return M


def analytic_ground_minimal(params) -> StateVector:
    """Closed-form minimal-model ground state, supported on |00> and |11>.

    The minimal model's offsets are h^2/r for Z0 and Z1 and 2k^2/r for X1,
    r = sqrt(h^2 + k^2).
    """
    h, k = params.h, params.k
    r = np.hypot(h, k)
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b00] = np.sqrt((1.0 - h / r) / 2.0)
    amps[0b11] = -np.sqrt((1.0 + h / r) / 2.0)
    return StateVector(2, amps)


def solve_ground(obs) -> GroundSolution:
    """Reference ground solve of any ObservableSum: the lowest eigenpair of
    its dense np.kron matrix, with the spectral gap; a gap below the
    package's DEGENERACY_TOL raises its DegenerateGroundError."""
    vals, vecs = np.linalg.eigh(dense_observable(obs))
    gap = float(vals[1] - vals[0])
    if gap < DEGENERACY_TOL:
        raise DegenerateGroundError(f"ground space degenerate (gap = {gap:.3e})")
    return GroundSolution(StateVector(obs.n_qubits, vecs[:, 0]), float(vals[0]), gap)


def dense_expectation(amps: np.ndarray, M: np.ndarray) -> complex:
    return complex(np.vdot(amps, M @ amps))


def ensemble_density(ensemble) -> np.ndarray:
    dim = 2**ensemble.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for b in ensemble.branches:
        a = b.state.amplitudes
        rho += b.probability * np.outer(a, a.conj())
    return rho


def feedback_energy_curve(ensemble, site: int, local, thetas) -> np.ndarray:
    """<local> after the feedback rotation at every angle of `thetas`.

    For each branch (p, psi, mu) the rotated states
    cos(t) psi - i mu sin(t) Y_site psi of the whole grid are stacked into
    one array, and their dense <local> is weighted by p.
    """
    M = dense_observable(local)
    Y = op_on("Y", site, ensemble.n_qubits)
    t = np.asarray(thetas, dtype=np.float64)[:, None]
    out = np.zeros(len(t))
    for b in ensemble.branches:
        psi = b.state.amplitudes
        rotated = np.cos(t) * psi - 1j * b.label * np.sin(t) * (Y @ psi)
        out += b.probability * np.einsum("gi,gi->g", rotated.conj(), rotated @ M.T).real
    return out


def dense_star_angle(q: int, h: float, k: float, j: int) -> dict[str, float]:
    """Offsets and receiver j's xi, eta and theta of the {3,q} star, from the
    dense ground state of the np.kron Hamiltonian.

    The offsets make every local vanish in the ground state; H below carries
    them, so <H> = 0.  xi = <g| Y_j H Y_j |g>, eta = <g| X_0 i[H, Y_j] |g>
    and theta = atan2(eta, xi) / 2.
    """
    dim = 2**q
    x0 = op_on("X", 0, q)
    words = {f"Z{i}": (h, op_on("Z", i, q)) for i in range(q)}
    words.update({f"X{i}": (2 * k, x0 @ op_on("X", i, q)) for i in range(1, q)})
    pauli = sum(c * M for c, M in words.values())
    _, vecs = np.linalg.eigh(pauli)
    g = vecs[:, 0]

    def mean(M):
        return complex(np.vdot(g, M @ g))

    out = {name: -c * mean(M).real for name, (c, M) in words.items()}
    H = pauli + sum(out.values()) * np.eye(dim)
    Y = op_on("Y", j, q)
    eta = mean(x0 @ (1j * (H @ Y - Y @ H)))
    assert abs(eta.imag) < 1e-12
    out["xi"] = mean(Y @ H @ Y).real
    out["eta"] = eta.real
    out["theta"] = 0.5 * float(np.arctan2(out["eta"], out["xi"]))
    return out


def partial_trace(amps: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix on `keep` (in the given order)."""
    t = amps.reshape((2,) * n)
    order = list(keep) + [s for s in range(n) if s not in keep]
    t = np.transpose(t, order).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def ring_counts_recurrence(q: int, depth: int) -> list[int]:
    """Layer recurrence for {3,q} ring sizes, written independently of the
    package: a_d one-parent and b_d two-parent vertices per ring."""
    counts = [1]
    if depth == 0:
        return counts
    a, b = q, 0
    counts.append(q)
    for _ in range(2, depth + 1):
        n = a + b
        nxt = a * (q - 3) + b * (q - 4) - n
        a, b = nxt - n, n
        counts.append(nxt)
    return counts


def star_reduced_values(q: int, h: float, k: float) -> dict[str, float]:
    """Machine-precision star observables via the receiver-permutation
    symmetric sector (dimension 2(q-1) + 2), fully independent of the
    package pipeline.

    The model has q sites: sender + nr = q-1 receivers, spoke coupling 2k.
    In the symmetric sector H = h sz x I + 2h I x Jz + 4k sx x Jx.
    """
    nr = q - 1
    S = nr / 2.0
    m = np.arange(-S, S + 1)
    dim = len(m)
    Jz = np.diag(m)
    Jp = np.zeros((dim, dim))
    for i in range(dim - 1):
        Jp[i + 1, i] = np.sqrt(S * (S + 1) - m[i] * (m[i] + 1))
    Jx = 0.5 * (Jp + Jp.T)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0, 1.0], [1.0, 0]])
    H = (
        h * np.kron(sz, np.eye(dim))
        + 2 * h * np.kron(np.eye(2), Jz)
        + 2 * (2 * k) * np.kron(sx, Jx)
    )
    w, v = np.linalg.eigh(H)
    g = v[:, 0]
    z0 = float(np.vdot(g, np.kron(sz, np.eye(dim)) @ g).real)
    zj = 2 * float(np.vdot(g, np.kron(np.eye(2), Jz) @ g).real) / nr
    xx = 2 * float(np.vdot(g, np.kron(sx, Jx) @ g).real) / nr

    c = 2 * k
    eps_z = -h * zj
    eps_x = -c * xx
    xi = 2 * (eps_z + eps_x)
    eta = 2 * h * xx - 2 * c * zj
    th = 0.5 * np.arctan2(eta, xi)
    s, co = np.sin(th), np.cos(th)
    hz = 2 * eps_z * s * s - 2 * h * xx * co * s
    hx = 2 * eps_x * s * s + 2 * c * zj * co * s
    return {
        "E0": -h * z0,
        "HX": hx,
        "HZ": hz,
        "E_j": hx + hz,
        "theta": float(th),
        "xi": float(xi),
        "eta": float(eta),
        "gap": float(w[1] - w[0]),
    }


# --- the per-branch teleport, oracle of the package's stacked hop kernel ------
# One branch at a time on single StateVectors, through the package's one-state
# gate and Pauli kernels, none of which the stacked hop kernel calls.

def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    n = state.n_qubits
    if control == target:
        raise ValueError("control and target must differ")
    pc = n - 1 - control
    pt = n - 1 - target
    idx = np.arange(2**n, dtype=np.int64)
    src = np.where((idx >> pc) & 1 == 1, idx ^ (1 << pt), idx)
    return StateVector(n, state.amplitudes[src])


def tensor(state: StateVector, other: StateVector) -> StateVector:
    """state (x) other, with other's qubits appended after state's."""
    return StateVector(
        state.n_qubits + other.n_qubits,
        np.kron(state.amplitudes, other.amplitudes),
    )


def drop_qubits(state: StateVector, sites_bits: dict[int, int]) -> StateVector:
    """Remove qubits known to be in product computational states.

    Raises if any amplitude outside the asserted bit values exceeds 1e-12.
    """
    n = state.n_qubits
    t = state.amplitudes.reshape((2,) * n)
    index: list[Any] = [slice(None)] * n
    for site, bit in sites_bits.items():
        index[site] = bit
    kept = t[tuple(index)]
    residual = np.linalg.norm(t) ** 2 - np.linalg.norm(kept) ** 2
    if residual > 1e-12:
        raise ValueError(
            f"dropped qubits are not in the asserted computational states "
            f"(residual weight {residual:.3e})"
        )
    out = kept.reshape(-1)
    return StateVector(n - len(sites_bits), out / np.linalg.norm(out))


def _collapse_bit(state: StateVector, site: int, bit: int) -> tuple[float, StateVector]:
    """Probability and collapsed state of reading `bit` at `site` (Z basis)."""
    n = state.n_qubits
    t = state.amplitudes.reshape((2,) * n)
    index: list = [slice(None)] * n
    index[site] = 1 - bit
    kept = t.copy()
    kept[tuple(index)] = 0.0
    proj = kept.reshape(-1)
    p = float(np.vdot(proj, proj).real)
    if p <= 0.0:
        return 0.0, state
    return p, StateVector(n, proj / np.sqrt(p))


def _correct(state: StateVector, target: int, m1: int, m2: int) -> StateVector:
    out = state
    if m2:
        out = apply_pauli(out, x_on(out.n_qubits, target))
    if m1:
        out = apply_pauli(out, z_on(out.n_qubits, target))
    return out


def teleport_branches(
    state: StateVector, source: int, pair: tuple[int, int]
) -> dict[tuple[int, int], tuple[float, StateVector]]:
    """(m1, m2) -> (joint probability, corrected register without source
    and pair[0]) of teleporting `source` onto `pair[1]`, one branch at a
    time: CNOT(source -> pair[0]), H(source), collapse each bit, correct
    pair[1], then drop the measured qubits.  Raises AssertionError if the
    branches disagree."""
    a, b = pair
    work = apply_gate_1q(apply_cnot(state, source, a), source, HADAMARD)
    out = {}
    for m1 in (0, 1):
        p1, s1 = _collapse_bit(work, source, m1)
        for m2 in (0, 1):
            p2, s2 = _collapse_bit(s1, a, m2)
            out[(m1, m2)] = (p1 * p2, drop_qubits(_correct(s2, b, m1, m2), {source: m1, a: m2}))
    for _, reduced in out.values():
        if pure_trace_distance(out[(0, 0)][1], reduced) > 1e-10:
            raise AssertionError("teleportation branches disagree after correction")
    return out
