"""The {3,q} star model with zero-point offsets, its ground state, and the
feedback angle.

Site-count convention for the star family: a {3,q} network cell is modeled
with q qubits, the sender at site 0 and q-1 receivers at sites 1..q-1, each
coupled to the sender by 2k X0Xj.  The q=2 member of the family is exactly
Hotta's 2-qubit minimal model, so both are built by `star_model`.

The star's ground state is solved in the receivers' total-spin blocks
(`solve_star_ground`), never from the 2^q x 2^q matrix; `solve_ground` is
the dense solver for arbitrary operators, kept as the reference the tests
compare against.  The ground state is receiver-symmetric, so three Pauli
moments, <Z_0>, <Z_j> and <X_0 X_j> (the same for every receiver j), are
read from the block's ground vector; they set every offset and the
feedback angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .ops import (
    MAX_STATEVECTOR_QUBITS,
    DegenerateGroundError,
    ObservableSum,
    PauliString,
    StateVector,
    single_term,
    to_dense,
    z_on,
)

DEGENERACY_TOL = 1e-9


def _check_hk(h: float, k: float) -> None:
    if not (0 < h < math.inf and 0 < k < math.inf):
        raise ValueError("h and k must be finite and positive")


@dataclass(frozen=True)
class MinimalModelParams:
    """h and k of the minimal model: the q = 2 star, reported as "minimal"."""

    kind: ClassVar[str] = "minimal"
    h: float
    k: float

    def __post_init__(self):
        _check_hk(self.h, self.k)

    @property
    def q(self) -> int:
        return 2


@dataclass(frozen=True)
class StarModelParams:
    """h, k and the coordination number q of the {3,q} tiling (q sites).

    q = 2 is allowed as the degenerate member of the family: one sender and
    one receiver, which is exactly the minimal model.
    """

    kind: ClassVar[str] = "star"
    h: float
    k: float
    q: int

    def __post_init__(self):
        _check_hk(self.h, self.k)
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.q > MAX_STATEVECTOR_QUBITS:
            raise ValueError(
                f"q = {self.q} exceeds the {MAX_STATEVECTOR_QUBITS}-qubit statevector guard"
            )


ModelParams = Union[MinimalModelParams, StarModelParams]


@dataclass(frozen=True)
class GroundMoments:
    """Pauli-part ground moments of the star: <Z_0>, and <Z_j> and <X_0 X_j>,
    which are the same for every receiver j."""

    z0: float
    zj: float
    xx: float


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Total Hamiltonian plus its named local terms, the site roles and the
    ground moments.

    The locals are Z{i} (field at site i) and X{j} (coupling of receiver j to
    the sender).  Their sum equals the total (canonical equality), and every
    local has zero ground-state expectation by construction of the offsets.
    """

    params: ModelParams
    total: ObservableSum
    locals: dict[str, ObservableSum]
    sender_site: int
    receiver_sites: tuple[int, ...]
    moments: GroundMoments

    @property
    def n_qubits(self) -> int:
        return self.total.n_qubits


@dataclass(frozen=True, eq=False)
class GroundSolution:
    state: StateVector
    energy: float
    gap: float


@dataclass(frozen=True)
class FeedbackAngle:
    """Conditional-rotation angle with the moments that determine it.

    xi = <g| Y_j H Y_j |g> and eta = <g| X_0 (i[H, Y_j]) |g>; theta is the
    branch of atan2(eta, xi)/2 that minimizes the receiver energy, i.e.
    cos(2 theta) = xi / sqrt(xi^2 + eta^2) and
    sin(2 theta) = eta / sqrt(xi^2 + eta^2).
    """

    theta: float
    xi: float
    eta: float


def analytic_ground_minimal(params: MinimalModelParams) -> StateVector:
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


def _ground_solution(
    n_qubits: int, vec: np.ndarray, energy: float, gap: float
) -> GroundSolution:
    """Reject a (numerically) degenerate ground space, fix the global phase.

    The protocol angles are undefined on a degenerate ground space.
    """
    if gap < DEGENERACY_TOL:
        raise DegenerateGroundError(
            f"ground space degenerate within tolerance (gap = {gap:.3e})"
        )
    vec = vec.astype(np.complex128)
    # deterministic global phase: largest-magnitude amplitude real positive
    pivot = int(np.argmax(np.abs(vec)))
    vec *= np.exp(-1j * np.angle(vec[pivot]))
    vec /= np.linalg.norm(vec)
    return GroundSolution(state=StateVector(n_qubits, vec), energy=float(energy), gap=gap)


def solve_ground(obs: ObservableSum) -> GroundSolution:
    """Minimal eigenpair of the dense Hermitian matrix, with the spectral gap."""
    M = to_dense(obs)
    if np.abs(M.imag).max() < 1e-14:
        M = np.ascontiguousarray(M.real)
    vals, vecs = np.linalg.eigh(M)
    return _ground_solution(obs.n_qubits, vecs[:, 0], vals[0], float(vals[1] - vals[0]))


def _spin_block(h: float, k: float, d: int) -> np.ndarray:
    """The star's Pauli part on the sender times one receiver spin-J block, d = 2J.

    With J the receivers' total spin, H = h Z0 + 2h J_z + 4k X0 J_x.  Basis
    |s> (x) |J, J - n> at index s * (d + 1) + n, s the sender bit and
    n = 0..d: the diagonal is h (1 - 2s) + h (d - 2n), and 4k X0 J_x links
    (s, n) with (1 - s, n + 1) by 2k sqrt((n + 1)(d - n)).  For d = q - 1,
    |J, J - n> is the receivers' Dicke state with n ones.
    """
    n = np.arange(d + 1)
    leaves_z = h * (d - 2.0 * n)
    block = np.diag(np.concatenate([h + leaves_z, -h + leaves_z]))
    lower, upper = n[:-1], n[:-1] + 1
    link = 2.0 * k * np.sqrt(upper * (d - lower))
    for s in (0, 1):
        a, b = s * (d + 1) + lower, (1 - s) * (d + 1) + upper
        block[a, b] = block[b, a] = link
    return block


def solve_star_ground(h: float, k: float, q: int) -> tuple[GroundSolution, GroundMoments]:
    """Ground state of H = h sum_i Z_i + 2k sum_j X_0 X_j on q sites, and its
    moments <Z_0>, <Z_j> and <X_0 X_j>.

    H keeps the total parity prod_i Z_i; after a Z_0 sign gauge it is
    stoquastic and each parity sector is connected, so each sector's ground
    state is unique and symmetric under permuting the receivers.  The ground
    space therefore lies in the receivers' top total-spin block
    J = (q - 1)/2, a 2q x 2q problem.  The gap is taken over the whole
    spectrum: the second level of that block against the lowest level of
    every lower-J block.  The result is embedded into the 2^q amplitudes,
    a Dicke state with m ones having amplitude 1/sqrt(C(q - 1, m)) per
    basis state.  The moments are read from the block vector g: with
    d = q - 1 receivers, <Z_j> = <2 J_z>/d and <X_0 X_j> = <X_0 2 J_x>/d.
    """
    leaves = q - 1
    vals, vecs = np.linalg.eigh(_spin_block(h, k, leaves))
    excited = [vals[1]] + [
        np.linalg.eigvalsh(_spin_block(h, k, d))[0] for d in range(leaves - 2, -1, -2)
    ]
    idx = np.arange(2**q, dtype=np.int64)
    ones = np.bitwise_count(idx & ((1 << leaves) - 1))
    dicke = 1.0 / np.sqrt([float(math.comb(leaves, m)) for m in range(q)])
    g = vecs[:, 0]
    vec = g[(idx >> leaves) * q + ones] * dicke[ones]
    solution = _ground_solution(q, vec, vals[0], float(min(excited) - vals[0]))

    # g[s * q + n]: sender bit s, n receiver ones; X_0 J_x links (s, n) with
    # (1 - s, n + 1) by sqrt((n + 1)(d - n)) / 2, as in `_spin_block`
    n = np.arange(q)
    up, down = g.reshape(2, q)
    link = np.sqrt((n[:-1] + 1.0) * (leaves - n[:-1]))
    x0_jx2 = 2.0 * link @ (up[:-1] * down[1:] + down[:-1] * up[1:])
    moments = GroundMoments(
        z0=float(up @ up - down @ down),
        zj=float((up * up + down * down) @ (leaves - 2.0 * n) / leaves),
        xx=float(x0_jx2 / leaves),
    )
    return solution, moments


def star_model(params: ModelParams) -> tuple[ModelBundle, GroundSolution]:
    """Build the star bundle and its ground solution (offsets need the ground);
    MinimalModelParams give the q = 2 star.

    The offsets cannot change the eigenvectors, so the ground state is solved
    on the Pauli parts alone, by `solve_star_ground`, and each local's offset
    is then set to the negative of its Pauli-part ground expectation, making
    every local and the total vanish in the ground state: -h <Z_0> for Z0,
    -h <Z_j> for Zj and -2k <X_0 X_j> for Xj.
    """
    h, k, n = params.h, params.k, params.q
    raw, moments = solve_star_ground(h, k, n)
    parts = {"Z0": (h, z_on(n, 0), h * moments.z0)}
    for i in range(1, n):
        parts[f"Z{i}"] = (h, z_on(n, i), h * moments.zj)
    for j in range(1, n):
        xx = PauliString.from_map(n, {0: "X", j: "X"})
        parts[f"X{j}"] = (2 * k, xx, 2 * k * moments.xx)
    locals_: dict[str, ObservableSum] = {}
    offset = 0.0
    for name, (coeff, word, mean) in parts.items():
        locals_[name] = single_term(coeff, word, offset=-mean)
        offset -= mean
    total = ObservableSum(n, tuple((c, w) for c, w, _ in parts.values()), offset)
    bundle = ModelBundle(
        params=params,
        total=total,
        locals=locals_,
        sender_site=0,
        receiver_sites=tuple(range(1, n)),
        moments=moments,
    )
    ground = GroundSolution(state=raw.state, energy=raw.energy + offset, gap=raw.gap)
    return bundle, ground


def feedback_angle(bundle: ModelBundle, receiver_site: int) -> FeedbackAngle:
    """Angle for one receiver of the protocol: the sender measures X0, the
    receiver rotates about Yj.

    Conjugating by Y_j flips Z_j and X_0 X_j, and <H> = 0, so
    xi = -2h <Z_j> - 4k <X_0 X_j>; i[H, Y_j] = 2h X_j - 4k X_0 Z_j, so
    eta = 2h <X_0 X_j> - 4k <Z_j>.  theta = atan2(eta, xi) / 2 lies in
    (-pi/2, pi/2] and minimizes E(theta) = xi sin^2(theta) -
    eta sin(theta) cos(theta).
    """
    if receiver_site not in bundle.receiver_sites:
        raise ValueError(f"site {receiver_site} is not a receiver site of this model")
    h, k, m = bundle.params.h, bundle.params.k, bundle.moments
    xi = -2.0 * h * m.zj - 4.0 * k * m.xx
    eta = 2.0 * h * m.xx - 4.0 * k * m.zj
    theta = 0.5 * np.arctan2(eta, xi)
    return FeedbackAngle(theta=float(theta), xi=float(xi), eta=float(eta))
