"""The {3,q} star model with zero-point offsets, its ground state, and the
feedback angle.

Site-count convention for the star family: a {3,q} network cell is modeled
with q qubits, the sender at site 0 and q-1 receivers at sites 1..q-1, each
coupled to the sender by 2k X0Xj.  The q=2 member of the family is exactly
Hotta's 2-qubit minimal model, so both are built by `star_model`.

The star's ground state is solved in the receivers' total-spin blocks
(`star_block_ground`), never from the 2^q x 2^q matrix.  It is
receiver-symmetric, so three Pauli moments, <Z_0>, <Z_j> and <X_0 X_j>, set
every offset and the one feedback angle all receivers share, and
`exact_energies` turns them into every exact number of the protocol.  Both
broadcast over arrays of (h, k): a grid is one stacked eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .ops import MAX_STATEVECTOR_QUBITS, DegenerateGroundError

DEGENERACY_TOL = 1e-9
# E_B is within 1e-15 of a 50-digit oracle up to h/k = 1e15 and off by a
# factor 4 from 1e16, where the block no longer resolves <X_0 X_j> ~ k/h.
MAX_FIELD_RATIO = 1e12


class IllConditionedError(ValueError):
    """Raised when (h, k) lie outside the range the ground solve resolves."""


def _check_hk(h: float, k: float) -> None:
    if not (0 < h < math.inf and 0 < k < math.inf):
        raise ValueError("h and k must be finite and positive")
    if min(h, k) < np.finfo(float).tiny:
        raise ValueError(f"h and k must be at least {np.finfo(float).tiny} (smallest normal float)")


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
    which are the same for every receiver j (arrays over a grid of (h, k))."""

    z0: float
    zj: float
    xx: float


class Local(NamedTuple):
    """One local term, coeff * P + offset, P the product of the `basis`
    Pauli ("Z" or "X") on each of `sites`."""

    coeff: float
    basis: str
    sites: tuple[int, ...]
    offset: float


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """The named local terms, the ground moments, the feedback angle every
    receiver uses and the ground state's block vector of one star.

    The locals are Z{i} = h Z_i (field at site i) and X{j} = 2k X_0 X_j
    (coupling of receiver j to the sender), each with the offset that makes
    its ground-state expectation vanish; H is their sum.  The ground state
    is sum_{s, n} g[s, n] |s> (x) |D_n>, |D_n> the receivers' normalized
    Dicke state with n ones (`star_block_ground`).
    """

    params: ModelParams
    locals: dict[str, Local]
    moments: GroundMoments
    angle: FeedbackAngle
    g: np.ndarray  # shape (2, q)

    @property
    def n_qubits(self) -> int:
        return self.params.q


@dataclass(frozen=True)
class ReceiverEnergy:
    hx: float
    hz: float
    e_j: float
    e_b: float


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


def _spin_block(h, k, d: int) -> np.ndarray:
    """The star's Pauli part on the sender times one receiver spin-J block, d = 2J.

    With J the receivers' total spin, H = h Z0 + 2h J_z + 4k X0 J_x.  Basis
    |s> (x) |J, J - n> at index s * (d + 1) + n, s the sender bit and
    n = 0..d: the diagonal is h (1 - 2s) + h (d - 2n), and 4k X0 J_x links
    (s, n) with (1 - s, n + 1) by 2k sqrt((n + 1)(d - n)).  For d = q - 1,
    |J, J - n> is the receivers' Dicke state with n ones.  h and k
    broadcast; the block is stacked over their shape.
    """
    h, k = (np.asarray(a, float)[..., None] for a in np.broadcast_arrays(h, k))
    n = np.arange(d + 1)
    leaves_z = h * (d - 2.0 * n)
    size = 2 * (d + 1)
    block = np.zeros(leaves_z.shape[:-1] + (size, size))
    diag = np.arange(size)
    block[..., diag, diag] = np.concatenate([h + leaves_z, -h + leaves_z], axis=-1)
    lower, upper = n[:-1], n[:-1] + 1
    link = 2.0 * k * np.sqrt(upper * (d - lower))
    for s in (0, 1):
        a, b = s * (d + 1) + lower, (1 - s) * (d + 1) + upper
        block[..., a, b] = block[..., b, a] = link
    return block


def star_block_ground(h, k, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, GroundMoments]:
    """Ground level, gap, block vector g and moments of H = h sum_i Z_i +
    2k sum_j X_0 X_j on q sites, at every (h, k) of the broadcast arrays.

    H keeps the total parity prod_i Z_i; after a Z_0 sign gauge it is
    stoquastic and each parity sector is connected, so each sector's ground
    state is unique and receiver-symmetric: it lies in the top total-spin
    block J = (q - 1)/2, solved for the whole grid by one stacked `eigh`.
    The gap is taken against the lowest level of every lower-J block too; a
    gap below DEGENERACY_TOL * max(h, k) anywhere raises
    DegenerateGroundError, as the protocol angles are undefined on a
    degenerate ground space, and h/k above MAX_FIELD_RATIO anywhere raises
    IllConditionedError.  With d = q - 1, <Z_j> = <2 J_z>/d and
    <X_0 X_j> = <X_0 2 J_x>/d, X_0 J_x linking g[s * q + n] with
    g[(1 - s) * q + n + 1] by sqrt((n + 1)(d - n)) / 2.
    """
    leaves = q - 1
    vals, vecs = np.linalg.eigh(_spin_block(h, k, leaves))
    excited = vals[..., 1]
    for d in range(leaves - 2, -1, -2):
        excited = np.minimum(excited, np.linalg.eigvalsh(_spin_block(h, k, d))[..., 0])
    gap = excited - vals[..., 0]
    with np.errstate(over="ignore"):
        ratio = np.max(np.divide(h, k))
    if ratio > MAX_FIELD_RATIO:
        raise IllConditionedError(f"ill-conditioned: h/k = {ratio:.3g} > {MAX_FIELD_RATIO:g}")
    if not np.all(gap >= DEGENERACY_TOL * np.maximum(h, k)):
        raise DegenerateGroundError(_degenerate_message(h, k, gap, vals))
    g = vecs[..., 0]
    n = np.arange(q)
    up, down = g[..., :q], g[..., q:]
    link = np.sqrt((n[:-1] + 1.0) * (leaves - n[:-1]))
    x0_jx2 = 2.0 * (up[..., :-1] * down[..., 1:] + down[..., :-1] * up[..., 1:]) @ link
    moments = GroundMoments(
        z0=(up * up - down * down).sum(axis=-1),
        zj=(up * up + down * down) @ (leaves - 2.0 * n) / leaves,
        xx=x0_jx2 / leaves,
    )
    return vals[..., 0], gap, g, moments


def _degenerate_message(h, k, gap, levels) -> str:
    """The smallest gap, also relative to max(h, k), and whether it is within
    the block solve's roundoff, 16 eps |H|."""
    i = np.unravel_index(np.argmin(gap), np.shape(gap))
    scale = np.broadcast_to(np.maximum(h, k), np.shape(gap))[i]
    unresolved = gap[i] <= 16 * np.finfo(float).eps * np.max(np.abs(levels[i]))
    return (
        f"ground space degenerate within tolerance (gap = {gap[i]:.3e}, "
        f"{gap[i] / scale:.3e} relative to max(h, k) = {scale:.3g}"
        + ("; below double precision, so the solve cannot resolve it)" if unresolved else ")")
    )


def star_model(params: ModelParams) -> ModelBundle:
    """Build the star bundle; MinimalModelParams give the q = 2 star.

    The offsets cannot change the eigenvectors, so the ground state is solved
    on the Pauli parts alone, by `star_block_ground`, and each local's offset
    is then set to the negative of its Pauli-part ground expectation, making
    every local, and so H, vanish in the ground state: -h <Z_0> for Z0,
    -h <Z_j> for Zj and -2k <X_0 X_j> for Xj.  The moments set the angle too.
    """
    h, k, n = params.h, params.k, params.q
    _, _, g, moments = star_block_ground(h, k, n)
    moments = GroundMoments(z0=float(moments.z0), zj=float(moments.zj), xx=float(moments.xx))
    locals_ = {"Z0": Local(h, "Z", (0,), -(h * moments.z0))}
    for i in range(1, n):
        locals_[f"Z{i}"] = Local(h, "Z", (i,), -(h * moments.zj))
    for j in range(1, n):
        locals_[f"X{j}"] = Local(2 * k, "X", (0, j), -(2 * k * moments.xx))
    a = _angle(h, k, moments)
    return ModelBundle(
        params=params,
        locals=locals_,
        moments=moments,
        angle=FeedbackAngle(theta=float(a.theta), xi=float(a.xi), eta=float(a.eta)),
        g=g.reshape(2, n),
    )


def _angle(h, k, moments: GroundMoments) -> FeedbackAngle:
    """xi, eta and theta from the ground moments (derived in
    `exact_energies`); broadcasts like it."""
    xi = -2.0 * h * moments.zj - 4.0 * k * moments.xx
    eta = 2.0 * h * moments.xx - 4.0 * k * moments.zj
    return FeedbackAngle(theta=0.5 * np.arctan2(eta, xi), xi=xi, eta=eta)


def exact_energies(h, k, moments: GroundMoments) -> tuple[float, ReceiverEnergy]:
    """(E0, ReceiverEnergy) of the protocol in closed form from the three
    ground moments; h, k and the moments broadcast over arrays.

    The sender measures X0 (projectors P_mu), the receiver applies
    U_mu = cos t - i mu sin t Y_j.  A receiver local O commutes with X0, as
    do Y_j O Y_j and i[Y_j, O], and <O> = 0 by its offset, so
    sum_mu <P_mu U_mu^+ O U_mu P_mu> = sin^2 t <Y_j O Y_j> + sin t cos t <i[Y_j, O] X0>.
    The two rotations: Y_j Z_j Y_j = -Z_j and i[Y_j, Z_j] X0 = -2 X0 X_j give
    HZ_j = -2h sin t (sin t <Z_j> + cos t <X0 X_j>); Y_j X_j Y_j = -X_j and
    i[Y_j, X0 X_j] X0 = 2 Z_j give HX_j = -4k sin t (sin t <X0 X_j> - cos t <Z_j>).
    Their sum is xi sin^2 t - eta sin t cos t, xi = <Y_j H Y_j> = -2h <Z_j> -
    4k <X0 X_j>, eta = <X0 i[H, Y_j]> = 2h <X0 X_j> - 4k <Z_j>, minimized by
    t = atan2(eta, xi) / 2 in (-pi/2, pi/2] at (xi - hypot(xi, eta)) / 2.
    That form cancels when eta << xi; -eta^2 / (2 (xi + hypot(xi, eta)))
    does not, as xi >= 0 (Y_j|g> lies above the zero ground energy).  The
    measurement zeroes <Z0>, so E0 = -h <Z_0>.
    """
    a = _angle(h, k, moments)
    s, c = np.sin(a.theta), np.cos(a.theta)
    hz = -2.0 * h * s * (s * moments.zj + c * moments.xx)
    hx = -4.0 * k * s * (s * moments.xx - c * moments.zj)
    e_j = -0.5 * a.eta * (a.eta / (a.xi + np.hypot(a.xi, a.eta)))
    return -h * moments.z0, ReceiverEnergy(hx=hx, hz=hz, e_j=e_j, e_b=-e_j)
