"""Independent dense oracles used by the tests.

Everything here is built from 2x2 numpy arrays, np.kron and per-site
np.tensordot on full 2^q amplitude vectors, so the checks share no code path
with the package's reduced-state protocol pass, its readout kernel or its
teleport branch operators.  States are plain complex arrays; an ensemble
is a list of (probability, state, mu) branches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, NamedTuple

import numpy as np

from qetsim.model import DEGENERACY_TOL
from qetsim.ops import DegenerateGroundError
from qetsim.teleport import relay

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


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


class Term(NamedTuple):
    """One local term, coeff * P + offset, P the product of the `basis`
    Pauli ("Z" or "X") on each of `sites`."""

    coeff: float
    basis: str
    sites: tuple[int, ...]
    offset: float


def star_terms(bundle) -> dict[str, Term]:
    """The star's 2q - 1 named local terms, built from the bundle's params
    and moments: Z{i} = h Z_i (field at site i) and X{j} = 2k X_0 X_j
    (coupling of receiver j to the sender), each offset the negative of its
    Pauli part's ground expectation, so that H, their sum, vanishes in the
    ground state."""
    h, k, q, m = bundle.params.h, bundle.params.k, bundle.params.q, bundle.moments
    terms = {"Z0": Term(h, "Z", (0,), -(h * m.z0))}
    terms.update({f"Z{i}": Term(h, "Z", (i,), -(h * m.zj)) for i in range(1, q)})
    terms.update({f"X{j}": Term(2 * k, "X", (0, j), -(2 * k * m.xx)) for j in range(1, q)})
    return terms


def local_word(local, n: int) -> str:
    """The n-letter Pauli word of a Term: its basis on its sites."""
    return "".join(local.basis if i in local.sites else "I" for i in range(n))


def local_matrix(n: int, *locals_) -> np.ndarray:
    """Dense n-qubit matrix of a sum of Terms, via np.kron; the star's H is
    the sum of all its `star_terms`."""
    M = np.zeros((2**n, 2**n), dtype=complex)
    for local in locals_:
        M += local.offset * np.eye(2**n) + local.coeff * word_matrix(local_word(local, n))
    return M


def reduced_observable(sites: tuple[int, ...], *locals_) -> np.ndarray:
    """Dense matrix of a sum of Terms on `sites` only (in that order); every
    term must act on those sites alone."""
    M = np.zeros((2 ** len(sites),) * 2, dtype=complex)
    for local in locals_:
        assert set(local.sites) <= set(sites)
        M += local.offset * np.eye(len(M)) + local.coeff * word_matrix(
            "".join(local.basis if s in local.sites else "I" for s in sites)
        )
    return M


def parity_estimate(counts: np.ndarray, sites: tuple[int, ...], local) -> tuple[float, float]:
    """Brute-force (mean, stderr) of a Term from a run's per-outcome counts,
    outcome bits in the order of `sites`: the full parity
    (-1)**popcount(i & mask) of each occupied cell i, then the sample mean
    and variance over shots in exact rational arithmetic, and the standard
    error's root at 40 digits, so that neither underflows nor overflows."""
    n = len(sites)
    mask = sum(1 << (n - 1 - sites.index(site)) for site in local.sites)
    cells = np.flatnonzero(counts)
    counts = [int(c) for c in counts[cells]]
    offset, coeff = Fraction(local.offset), Fraction(local.coeff)
    values = [offset + coeff * (-1) ** bin(i & mask).count("1") for i in cells.tolist()]
    shots = sum(counts)
    mean = sum(c * v for c, v in zip(counts, values)) / shots
    var = sum(c * (v - mean) ** 2 for c, v in zip(counts, values)) / (shots - 1)
    return float(mean), exact_root(var / shots)


def exact_root(x: Fraction) -> float:
    """sqrt(x) of a non-negative rational, correctly rounded from 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(x.numerator) / Decimal(x.denominator)).sqrt())


def site_counts(joint: np.ndarray) -> np.ndarray:
    """Per-site marginals, in the sampler's tally layout, of (..., mu, outcome)
    counts or probabilities over n read-out sites (outcome bits in site
    order, the sender first): entry [..., i, 4 mu + 2 b0 + b] sums the cells
    with that mu, sender bit b0 and bit b at site i (for the sender, b is
    b0).  Each site's bit gets its own axis by one reshape, so this shares no
    code with the sampler's weight classes."""
    n = joint.shape[-1].bit_length() - 1
    lead = joint.shape[:-2]
    x = joint.reshape(*lead, 2, 2, 2 ** (n - 1))  # mu, b0, the other bits
    out = np.zeros((*lead, n, 2, 2, 2), dtype=joint.dtype)
    out[..., 0, :, 0, 0] = x[..., 0, :].sum(axis=-1)
    out[..., 0, :, 1, 1] = x[..., 1, :].sum(axis=-1)
    for i in range(1, n):
        bits = x.reshape(*lead, 2, 2, 2 ** (i - 1), 2, 2 ** (n - 1 - i))
        out[..., i, :, :, :] = bits.sum(axis=(-3, -1))
    return out.reshape(*lead, n, 8)


# --- states ---------------------------------------------------------------------

def _qubits(amps: np.ndarray) -> int:
    return len(amps).bit_length() - 1


def on_site(amps: np.ndarray, site: int, gate: np.ndarray) -> np.ndarray:
    """A 2x2 gate applied at one site, by np.tensordot on the site's axis."""
    n = _qubits(amps)
    t = np.tensordot(gate, amps.reshape((2,) * n), axes=([1], [site]))
    return np.moveaxis(t, 0, site).reshape(-1)


def apply_word(amps: np.ndarray, letters: str) -> np.ndarray:
    if len(letters) != _qubits(amps):
        raise ValueError(f"word {letters} does not fit {len(amps)} amplitudes")
    for site, letter in enumerate(letters):
        if letter != "I":
            amps = on_site(amps, site, PAULI[letter])
    return amps


def expectation(amps: np.ndarray, *locals_) -> float:
    """<sum of the Terms> of one state, word by word; the offsets add."""
    n = _qubits(amps)
    val = sum(
        local.offset + local.coeff * np.vdot(amps, apply_word(amps, local_word(local, n)))
        for local in locals_
    )
    assert abs(complex(val).imag) < 1e-10
    return complex(val).real


def ensemble_expectation(branches, *locals_) -> float:
    return sum(p * expectation(psi, *locals_) for p, psi, _ in branches)


def measure(amps: np.ndarray, letters: str) -> list[tuple[float, np.ndarray, int]]:
    """Projective measurement of a +-1 Pauli word: branches (p, state, mu),
    projector (I + mu W) / 2, zero-probability branches dropped."""
    rotated = apply_word(amps, letters)
    out = []
    for mu in (+1, -1):
        proj = 0.5 * (amps + mu * rotated)
        p = float(np.vdot(proj, proj).real)
        if p > 1e-12:
            out.append((p, proj / np.sqrt(p), mu))
    return out


def rotate(amps: np.ndarray, letters: str, theta: float, mu: int) -> np.ndarray:
    """(cos theta) I - i mu (sin theta) W applied to the state."""
    if mu not in (-1, +1):
        raise ValueError("mu must be +1 or -1")
    return np.cos(theta) * amps - 1j * mu * np.sin(theta) * apply_word(amps, letters)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(complex(np.vdot(a, b)))


def pure_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(1 - |<a|b>|^2), as the norm of b's component orthogonal to a,
    which does not cancel for nearly identical states."""
    return float(np.linalg.norm(b - np.vdot(a, b) * a))


# --- ground states ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DenseGround:
    state: np.ndarray
    energy: float
    gap: float


def solve_ground(M: np.ndarray) -> DenseGround:
    """Reference ground solve of a dense Hermitian matrix: its lowest
    eigenpair, with the spectral gap; a gap below the package's
    DEGENERACY_TOL raises its DegenerateGroundError."""
    vals, vecs = np.linalg.eigh(M)
    gap = float(vals[1] - vals[0])
    if gap < DEGENERACY_TOL:
        raise DegenerateGroundError(f"ground space degenerate (gap = {gap:.3e})")
    return DenseGround(vecs[:, 0], float(vals[0]), gap)


def analytic_ground_minimal(params) -> np.ndarray:
    """Closed-form minimal-model ground state, supported on |00> and |11>.

    The minimal model's offsets are h^2/r for Z0 and Z1 and 2k^2/r for X1,
    r = sqrt(h^2 + k^2).
    """
    h, k = params.h, params.k
    r = np.hypot(h, k)
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b00] = np.sqrt((1.0 - h / r) / 2.0)
    amps[0b11] = -np.sqrt((1.0 + h / r) / 2.0)
    return amps


def dicke_embed(g) -> np.ndarray:
    """The 2^q amplitudes of sum_{s, n} g[s, n] |s> (x) |D_n>: a receiver
    Dicke state with n ones has 1/sqrt(C(q - 1, n)) on each basis state."""
    g = np.reshape(g, (2, -1))
    q = g.shape[1]
    amps = np.zeros((2,) + (2,) * (q - 1), dtype=complex)
    for bits in np.ndindex(*(2,) * (q - 1)):
        n = sum(bits)
        for s in (0, 1):
            amps[(s,) + bits] = g[s, n] / math.sqrt(math.comb(q - 1, n))
    return amps.reshape(-1)


def dicke_vectors(r: int) -> np.ndarray:
    """The r-qubit Dicke states as the columns of a (2^r, r + 1) array:
    column w holds 1/sqrt(C(r, w)) on every basis state with w ones."""
    out = np.zeros((2**r, r + 1))
    for b in range(2**r):
        w = bin(b).count("1")
        out[b, w] = 1.0 / math.sqrt(math.comb(r, w))
    return out


def star_ground(bundle) -> np.ndarray:
    return dicke_embed(bundle.g)


def dense_expectation(amps: np.ndarray, M: np.ndarray) -> complex:
    return complex(np.vdot(amps, M @ amps))


# --- the protocol on full states -------------------------------------------------

def fed_ensemble(bundle, receivers, thetas=None):
    """The protocol on the 2^q ground state: X0 measured, then each receiver
    j rotated by cos t - i mu sin t Y_j, in the given order, t =
    thetas[j] or the package's feedback angle."""
    q = bundle.n_qubits
    branches = measure(star_ground(bundle), "X" + "I" * (q - 1))
    for j in receivers:
        t = bundle.angle.theta if thetas is None else thetas[j]
        y = "".join("Y" if i == j else "I" for i in range(q))
        branches = [(p, rotate(psi, y, t, mu), mu) for p, psi, mu in branches]
    return branches


def receiver_energy(branches, bundle, j) -> dict[str, float]:
    terms = star_terms(bundle)
    hx = ensemble_expectation(branches, terms[f"X{j}"])
    hz = ensemble_expectation(branches, terms[f"Z{j}"])
    return {"hx": hx, "hz": hz, "e_j": hx + hz, "e_b": -(hx + hz)}


def ensemble_density(branches) -> np.ndarray:
    return sum(p * np.outer(psi, psi.conj()) for p, psi, _ in branches)


def readout_law(branches, sites: tuple[int, ...], basis: str) -> np.ndarray:
    """(mu, outcome) law of reading `sites` (outcome bits in that order):
    p_mu times the diagonal of each branch's partial trace on `sites`,
    after a Hadamard at each of them in an X-run."""
    law = np.zeros((2, 2 ** len(sites)))
    for p, psi, mu in branches:
        if basis == "X":
            for site in sites:
                psi = on_site(psi, site, HADAMARD)
        rho = partial_trace(psi, _qubits(psi), sites)
        law[0 if mu == +1 else 1] = p * np.diag(rho).real
    return law


def class_cells(x: np.ndarray, probabilities: bool = False) -> np.ndarray:
    """The 2^(|R|+1) cells |s b> (sender bit most significant, then the
    receivers' bits) of class values x[..., s, w] over |R| = x.shape[-1] - 1
    receivers, w a receiver weight: every string b of weight w shares the
    class equally, with x / sqrt(C(|R|, w)) as amplitudes and
    x / C(|R|, w) as probabilities.  The weight is counted per string with
    `bin`, so this shares no code with the package's Dicke classes."""
    r = x.shape[-1] - 1
    weight = [bin(b).count("1") for b in range(2**r)]
    share = np.array([math.comb(r, w) for w in weight], dtype=float)
    cells = x[..., weight] / (share if probabilities else np.sqrt(share))
    return cells.reshape(*x.shape[:-2], 2 ** (r + 1))


def oracle_pass(branches, sites: tuple[int, ...]) -> np.ndarray:
    """A pass array for the package's sampler from full branches, `sites`
    the sender and one receiver, whose classes are its cells: row mu holds
    sqrt(p_mu) psi_mu with the sender's and the receiver's bits on the last
    two axes and every other site on the spectator axis, a purification of
    the same reduced state."""
    assert len(sites) == 2
    rows = []
    for p, psi, mu in sorted(branches, key=lambda b: -b[2]):
        n = _qubits(psi)
        rest = [s for s in range(n) if s not in sites]
        t = np.transpose(psi.reshape((2,) * n), rest + list(sites))
        rows.append(np.sqrt(p) * t.reshape(2 ** len(rest), -1))
    out = np.array(rows)
    assert out.shape[0] == 2 and np.abs(out.imag).max() < 1e-14
    return out.real.reshape(2, -1, 2, 2)


def pass_density(fed: np.ndarray) -> np.ndarray:
    """Reduced density matrix of the read-out sites from a pass array in
    cells, fed[mu, m, c] (`class_cells`), summed over mu and the spectator m."""
    rows = fed.reshape(-1, fed.shape[-1])
    return rows.T @ rows.conj()


def pass_energy_curve(fed: np.ndarray, shifts, local: np.ndarray) -> np.ndarray:
    """<local> of a one-receiver pass array, whose classes (sender bit,
    receiver bit) are its cells, after turning the receiver on by each
    angle of `shifts` with cos t - i mu sin t Y, mu = +1 on row 0; `local`
    is 4 x 4."""
    fed = fed.reshape(2, -1, 4)
    out = []
    for t in shifts:
        rho = 0
        for mu, rows in zip((+1, -1), fed):
            turned = rows @ np.kron(I2, np.cos(t) * I2 - 1j * mu * np.sin(t) * PAULI["Y"]).T
            rho = rho + turned.T @ turned.conj()
        out.append(np.trace(rho @ local).real)
    return np.array(out)


def feedback_energy_curve(branches, site: int, M: np.ndarray, thetas) -> np.ndarray:
    """<M> after the feedback rotation at every angle of `thetas`, M a dense
    matrix on the branches' qubits.

    For each branch (p, psi, mu) the rotated states
    cos(t) psi - i mu sin(t) Y_site psi of the whole grid are stacked into
    one array, and their dense <M> is weighted by p.
    """
    n = _qubits(branches[0][1])
    Y = op_on("Y", site, n)
    t = np.asarray(thetas, dtype=np.float64)[:, None]
    out = np.zeros(len(t))
    for p, psi, mu in branches:
        rotated = np.cos(t) * psi - 1j * mu * np.sin(t) * (Y @ psi)
        out += p * np.einsum("gi,gi->g", rotated.conj(), rotated @ M.T).real
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


def decimal_star_moments(q: int, h: float, k: float, digits: int = 50) -> tuple[Decimal, Decimal]:
    """<Z_j> and <X_0 X_j> of the q >= 3 star's ground state at `digits`
    digits, in `decimal`, sharing no code with the package.

    In the receivers' top spin block J = (q - 1)/2, H = h Z0 + 2h J_z +
    4k X0 J_x keeps s + n mod 2 on |s> (x) |J, J - n>; the ground state is
    the lowest level of the chain with s = (n + q) mod 2, a symmetric
    tridiagonal with diagonal h (1 - 2s) + h (q - 1 - 2n) and links
    2k sqrt((n + 1)(q - 1 - n)).  Its level comes from bisection on the
    count of negative LDL^T pivots of chain - x, its vector from inverse
    iteration just below that level."""
    d = q - 1
    with localcontext() as ctx:
        ctx.prec = digits + 20
        h, k = Decimal(h), Decimal(k)
        diag = [h * (1 - 2 * ((n + q) % 2)) + h * (d - 2 * n) for n in range(d + 1)]
        roots = [Decimal((n + 1) * (d - n)).sqrt() for n in range(d)]
        links = [2 * k * r for r in roots]

        def pivots(x):
            out = [diag[0] - x]
            for a, b in zip(diag[1:], links):
                out.append(a - x - b * b / out[-1] if out[-1] else Decimal(-1))
            return out

        radius = max(map(abs, diag)) + 2 * max(links)
        lo, hi = -radius, radius
        while hi - lo > radius.scaleb(-digits - 10):
            mid = (lo + hi) / 2
            if any(p <= 0 for p in pivots(mid)):
                hi = mid
            else:
                lo = mid
        # chain - lo is positive definite: solve it by LDL^T, twice
        pivot = pivots(lo)
        v = [Decimal(1)] * (d + 1)
        for _ in range(2):
            z = [v[0]]
            for n in range(1, d + 1):
                z.append(v[n] - links[n - 1] / pivot[n - 1] * z[-1])
            y = [z[d] / pivot[d]]
            for n in range(d - 1, -1, -1):
                y.append(z[n] / pivot[n] - links[n] / pivot[n] * y[-1])
            y.reverse()
            norm = sum(x * x for x in y).sqrt()
            v = [x / norm for x in y]
        zj = sum(x * x * (d - 2 * n) for n, x in enumerate(v)) / d
        xx = 2 * sum(v[n] * v[n + 1] * roots[n] for n in range(d)) / d
        return zj, xx


def decimal_star_eb(q: int, h: float, k: float, digits: int = 50) -> Decimal:
    """E_B of the q >= 3 star at `digits` digits from `decimal_star_moments`:
    xi = -2h <Z_j> - 4k <X_0 X_j>, eta = 2h <X_0 X_j> - 4k <Z_j> and
    E_B = eta^2 / (2 (xi + sqrt(xi^2 + eta^2))), which does not cancel."""
    zj, xx = decimal_star_moments(q, h, k, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 20
        h, k = Decimal(h), Decimal(k)
        xi, eta = -2 * h * zj - 4 * k * xx, 2 * h * xx - 4 * k * zj
        return eta * eta / (2 * (xi + (xi * xi + eta * eta).sqrt()))


# --- the teleport through its gates, oracle of the package's relay ------------
# One branch at a time on single states, or one hop at a time on a stack,
# through the gates above; none of this calls the package's branch operators.

def apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    n = _qubits(amps)
    if control == target:
        raise ValueError("control and target must differ")
    pc = n - 1 - control
    pt = n - 1 - target
    idx = np.arange(2**n, dtype=np.int64)
    return amps[np.where((idx >> pc) & 1 == 1, idx ^ (1 << pt), idx)]


def drop_qubits(amps: np.ndarray, sites_bits: dict[int, int]) -> np.ndarray:
    """Remove qubits known to be in product computational states.

    Raises if any amplitude outside the asserted bit values exceeds 1e-12.
    """
    n = _qubits(amps)
    t = amps.reshape((2,) * n)
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
    return out / np.linalg.norm(out)


def _collapse_bit(amps: np.ndarray, site: int, bit: int) -> tuple[float, np.ndarray]:
    """Probability and collapsed state of reading `bit` at `site` (Z basis)."""
    n = _qubits(amps)
    index: list = [slice(None)] * n
    index[site] = 1 - bit
    kept = amps.reshape((2,) * n).copy()
    kept[tuple(index)] = 0.0
    proj = kept.reshape(-1)
    p = float(np.vdot(proj, proj).real)
    if p <= 0.0:
        return 0.0, amps
    return p, proj / np.sqrt(p)


def _correct(amps: np.ndarray, target: int, m1: int, m2: int) -> np.ndarray:
    if m2:
        amps = on_site(amps, target, PAULI["X"])
    if m1:
        amps = on_site(amps, target, PAULI["Z"])
    return amps


def teleport_branches(
    amps: np.ndarray, source: int, pair: tuple[int, int]
) -> dict[tuple[int, int], tuple[float, np.ndarray]]:
    """(m1, m2) -> (joint probability, corrected register without source
    and pair[0]) of teleporting `source` onto `pair[1]`, one branch at a
    time: CNOT(source -> pair[0]), H(source), collapse each bit, correct
    pair[1], then drop the measured qubits.  Raises AssertionError if the
    branches disagree."""
    a, b = pair
    work = on_site(apply_cnot(amps, source, a), source, HADAMARD)
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


def relay_by_hops(
    rows: np.ndarray, logical: int, hops: int, rng=None, drawn: int = 0
) -> tuple[np.ndarray, list[int] | None]:
    """The relay of qubit `logical` of every row of a (B, 2**n) stack, one
    hop at a time through the gates: each hop appends a Bell pair (a, b) to
    every row, applies CNOT(logical -> a) and H(logical), reads m1 at
    `logical` and m2 at a, corrects b by X^m2 then Z^m1, drops the read
    qubits, moves b to site `logical` and normalizes.  With an rng, row
    `drawn`'s joint readout probabilities of this hop draw m1 by the first
    of two uniforms and then m2 given m1 by the second, and every row keeps
    that branch; without one every row keeps (0, 0).  Returns the rows and
    the list of 2 * m1 + m2, or None without an rng."""
    batch, size = rows.shape
    n = size.bit_length() - 1
    site, a = 1 + logical, 1 + n  # tensor axes; axis 0 is the row
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    bits = None if rng is None else []
    for _ in range(hops):
        t = (rows[:, :, None] * bell).reshape((batch,) + (2,) * (n + 2))
        # CNOT(logical -> a): where the logical bit is 1, flip a, on axis n there
        control = (slice(None),) * site + (1,)
        t[control] = np.flip(t[control], axis=n).copy()
        t = np.moveaxis(np.tensordot(HADAMARD, t, axes=([1], [site])), 0, site)
        read = np.moveaxis(t, (site, a), (1, 2))  # (B, m1, m2, rest..., b)
        p = np.sum(np.abs(read.reshape(batch, 2, 2, -1)) ** 2, axis=-1)[drawn]
        m1 = m2 = 0
        if rng is not None:
            u1, u2 = rng.random(), rng.random()
            m1 = int(u1 >= p[0, 0] + p[0, 1])
            weight = p[m1, 0] + p[m1, 1]
            m2 = int(not (weight and u2 < p[m1, 0] / weight))
            bits.append(2 * m1 + m2)
        kept = read[:, m1, m2]
        if m2:
            kept = np.tensordot(kept, PAULI["X"], axes=([-1], [1]))
        if m1:
            kept = np.tensordot(kept, PAULI["Z"], axes=([-1], [1]))
        rows = np.moveaxis(kept, -1, site).reshape(batch, size)
        rows = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows, bits


# --- the package's relay against the per-hop oracle -----------------------------

def relay_identity_check(hops: int, panel_size: int = 100, seed: int = 7) -> float:
    """Relay a random single-qubit panel plus the six axis states, as one
    stack, `hops` times through the gates (`relay_by_hops`), and draw the
    same hops' bits from one stream `random.Random(seed)` both there and in
    the package's `relay`.  Returns the oracle's largest trace distance from
    the panel, which is machine-zero only while every corrected hop is the
    identity, or inf if the package's bits are not the oracle's."""
    rng = np.random.default_rng(seed)
    panel = []
    for _ in range(panel_size):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        panel.append(amps / np.linalg.norm(amps))
    s = 1 / np.sqrt(2)
    panel += [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    original = np.array(panel, dtype=np.complex128)

    want, bits = relay_by_hops(original, 0, hops, rng=random.Random(seed))
    kept = relay(hops, random.Random(seed))[0]
    # pure-state trace distance sqrt(1 - |<a|b>|^2), row by row, without cancellation
    overlap = np.sum(original.conj() * want, axis=-1)
    identity = np.max(np.linalg.norm(want - overlap[:, None] * original, axis=-1))
    return float(identity) if kept.tolist() == bits else math.inf
