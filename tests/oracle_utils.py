"""Independent dense-matrix oracles used by the tests.

Everything here is built directly from 2x2 numpy arrays and np.kron so the
checks do not share code paths with the package's Pauli-word kernels.
"""

from __future__ import annotations

import numpy as np

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
