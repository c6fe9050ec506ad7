"""The {3,q} star model with zero-point offsets, its ground state, and the
feedback angle.

Site-count convention for the star family: a {3,q} network cell is modeled
with q qubits, the sender at site 0 and q-1 receivers at sites 1..q-1, each
coupled to the sender by 2k X0Xj.  The q=2 member of the family is exactly
Hotta's 2-qubit minimal model, so both are built by `star_model`.

The star's ground state is solved in the receivers' total-spin blocks
(`star_block_ground`), never from the 2^q x 2^q matrix; at q = 2 both parity
sectors are 2 x 2 and it is solved in closed form, with no eigensolver.  It
is receiver-symmetric, so three Pauli moments, <Z_0>, <Z_j> and <X_0 X_j>,
set every offset and the one feedback angle all receivers share, and
`exact_energies` turns them into every exact number of the protocol.  Both
broadcast over arrays of (h, k): a grid is one vectorized solve.  A q = 2
model's bundle and record are formed on floats by `math` (`_minimal_solve`),
so the minimal model's runs never load numpy.

H is the sum of the local terms h Z_i (field at site i) and 2k X_0 X_j
(coupling of receiver j to the sender), each with the offset that makes its
ground expectation vanish: -h <Z_0>, -h <Z_j> and -2k <X_0 X_j>.  Only the
moments are kept; a term is formed where it is read, at the site read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar, NamedTuple, Union

from ._kernels import np
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
    if min(h, k) < sys.float_info.min:
        raise ValueError(f"h and k must be at least {sys.float_info.min} (smallest normal float)")


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


class GroundMoments(NamedTuple):
    """Pauli-part ground moments of the star: <Z_0>, and <Z_j> and <X_0 X_j>,
    which are the same for every receiver j (arrays over a grid of (h, k))."""

    z0: float
    zj: float
    xx: float


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """The parameters, the ground moments, the feedback angle every receiver
    uses and the ground state's block vector of one star.

    The moments set every local term's offset (see the module docstring).
    The ground state is sum_{s, n} g[s, n] |s> (x) |D_n>, |D_n> the
    receivers' normalized Dicke state with n ones (`star_block_ground`).
    """

    params: ModelParams
    moments: GroundMoments
    angle: FeedbackAngle
    g: np.ndarray  # shape (2, q); at q = 2 nested tuples, g[s][n]

    @property
    def n_qubits(self) -> int:
        return self.params.q


class ReceiverEnergy(NamedTuple):
    hx: float
    hz: float
    e_j: float
    e_b: float


class FeedbackAngle(NamedTuple):
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
    block J = (q - 1)/2.  At q = 2 that block is the whole space and
    `_minimal_levels` gives everything in closed form; for q >= 3
    `_block_ground` solves it for the whole grid by one stacked `eigh`.  A
    gap below DEGENERACY_TOL * max(h, k) anywhere raises
    DegenerateGroundError, as the protocol angles are undefined on a
    degenerate ground space, and h/k above MAX_FIELD_RATIO anywhere raises
    IllConditionedError.
    """
    h, k = np.asarray(h, float), np.asarray(k, float)
    if q > 2:
        levels, gap, g = _block_ground(h, k, q)
        _check_ground(h, k, gap, levels)
        return levels[..., 0], gap, g, _ground_moments(h, k, g, q)
    h, k = np.broadcast_arrays(h, k)
    r, ground, gap = _minimal_levels(h, k, np)
    t = 1.0 + h / r
    g = np.zeros(h.shape + (4,))
    g[..., 0], g[..., 3] = (k / r) / np.sqrt(2.0 * t), -np.sqrt(0.5 * t)
    _check_ground(h, k, gap)
    return ground, gap, g, GroundMoments(z0=-h / r, zj=-h / r, xx=-k / r)


def _check_ground(h, k, gap, levels=None) -> None:
    """Raise on h/k above MAX_FIELD_RATIO anywhere, then on a gap below
    DEGENERACY_TOL * max(h, k), named where it is smallest relative to
    max(h, k), with whether it is within `levels`' roundoff, 16 eps |H|."""
    with np.errstate(over="ignore"):
        ratio = np.max(np.divide(h, k))
    if ratio > MAX_FIELD_RATIO:
        raise IllConditionedError(f"ill-conditioned: h/k = {ratio:.3g} > {MAX_FIELD_RATIO:g}")
    if not np.all(gap >= DEGENERACY_TOL * np.maximum(h, k)):
        i = np.unravel_index(np.argmin(gap / np.maximum(h, k)), np.shape(gap))
        h, k = (np.broadcast_to(x, np.shape(gap))[i] for x in (h, k))
        unresolved = levels is not None and (
            gap[i] <= 16 * np.finfo(float).eps * np.max(np.abs(levels[i])))
        raise DegenerateGroundError(_degenerate_message(h, k, gap[i], unresolved))


# `math`'s functions under the names of numpy's that the closed forms call
_MATH = SimpleNamespace(arctan2=math.atan2, cos=math.cos, hypot=math.hypot, sin=math.sin)
# On floats nothing raises where numpy, under `main`'s errstate, stops at the
# first overflowing step
_OVERFLOW = "overflow encountered in the q = 2 closed form"


def _minimal_levels(h, k, xp):
    """r = hypot(h, k), the ground level -2r and the gap 2r - 2k = 2h^2 /
    (r + k), which does not cancel, of Hotta's minimal model, the q = 2
    star, on arrays (xp = np) or floats (xp = _MATH).  H = h (Z_0 + Z_1) +
    2k X_0 X_1 is [[2h, 2k], [2k, -2h]] on {|00>, |11>} and [[0, 2k], [2k,
    0]] on {|01>, |10>}, so its levels are -2r, -2k, 2k and 2r.  With t = 1 +
    h/r the ground state is (k/r) / sqrt(2t) |00> - sqrt(t/2) |11>, neither
    factor under- nor overflowing at any accepted (h, k)."""
    r = xp.hypot(h, k)
    return r, -2.0 * r, 2.0 * h * (h / (r + k))


def _minimal_solve(h: float, k: float) -> tuple[GroundMoments, tuple]:
    """`star_block_ground` at q = 2 on floats, its checks in its order: the
    moments <Z_0> = <Z_1> = -h/r and <X_0 X_1> = -k/r, and g[s][n]."""
    r, ground, gap = _minimal_levels(h, k, _MATH)
    if not math.isfinite(ground):
        raise FloatingPointError(_OVERFLOW)
    if h / k > MAX_FIELD_RATIO:
        raise IllConditionedError(f"ill-conditioned: h/k = {h / k:.3g} > {MAX_FIELD_RATIO:g}")
    if not gap >= DEGENERACY_TOL * max(h, k):
        raise DegenerateGroundError(_degenerate_message(h, k, gap, False))
    t = 1.0 + h / r
    g = ((k / r) / math.sqrt(2.0 * t), 0.0), (0.0, -math.sqrt(0.5 * t))
    return GroundMoments(z0=-h / r, zj=-h / r, xx=-k / r), g


def _block_ground(h, k, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`star_block_ground` for q >= 3 by a stacked `eigh` of the top
    spin block, returning its levels in place of the ground level.

    The gap is taken against the lowest level of the J - 1 block (d = q - 3)
    too, and of no lower block: the lowest level rises as J falls, a
    Lieb-Mattis ordering (E. Lieb and D. Mattis, J. Math. Phys. 3, 749
    (1962)) that `test_model` checks against every block for q <= 64, where
    each lower block lies at least ~2 max(h, k) above the J - 1 one.  So the
    solve is two `eigh`s: at h = 0.15 q, k = 2 it takes 7.7 ms at q = 100
    and 0.18 s at q = 400 (2 vCPU, numpy 2.4).
    """
    vals, vecs = np.linalg.eigh(_spin_block(h, k, q - 1))
    excited = np.minimum(vals[..., 1], np.linalg.eigvalsh(_spin_block(h, k, q - 3))[..., 0])
    return vals, excited - vals[..., 0], vecs[..., 0]


def _ground_moments(h, k, g, q: int) -> GroundMoments:
    """<Z_0>, <Z_j> and <X_0 X_j> of the q >= 3 ground state with block
    vector g, broadcasting like it (at q = 2 they are the closed form
    <Z_0> = <Z_1> = -h/r and <X_0 X_1> = -k/r).  With d = q - 1,
    <Z_j> = <2 J_z>/d and <X_0 X_j> = <X_0 2 J_x>/d, X_0 J_x linking
    g[s * q + n] with g[(1 - s) * q + n + 1] by sqrt((n + 1)(d - n)) / 2.
    """
    leaves, n = q - 1, np.arange(q)
    up, down = g[..., :q], g[..., q:]
    link = np.sqrt((n[:-1] + 1.0) * (leaves - n[:-1]))
    x0_jx2 = 2.0 * (up[..., :-1] * down[..., 1:] + down[..., :-1] * up[..., 1:]) @ link
    return GroundMoments(
        z0=(up * up - down * down).sum(axis=-1),
        zj=(up * up + down * down) @ (leaves - 2.0 * n) / leaves,
        xx=x0_jx2 / leaves,
    )


def _degenerate_message(h: float, k: float, gap: float, unresolved: bool) -> str:
    """The gap at (h, k), absolute and relative to max(h, k), whether an
    eigensolve left it `unresolved`, and the point."""
    scale = max(h, k)
    return (
        f"ground space degenerate within tolerance (gap = {gap:.3e}, "
        f"{gap / scale:.3e} relative to max(h, k) = {scale:.3g}"
        + ("; below double precision, so the solve cannot resolve it)" if unresolved else ")")
        + f" at h = {h:.12g}, k = {k:.12g}"
    )


def star_models(params: list[ModelParams]) -> list[ModelBundle]:
    """The bundle of each model; MinimalModelParams give the q = 2 star.

    The offsets cannot change the eigenvectors, so the ground states are
    solved on the Pauli parts alone, each group of equal q >= 3 by one
    stacked `_block_ground` and its checks.  Each bundle reads its moments,
    which set every offset and the angle, from its own row of g, as a solve
    of that model alone does: a product over the stack would round them
    differently.  A q = 2 model is solved alone, on floats (`_minimal_solve`),
    so a q = 2 stack raises at its first failing model.
    """
    bundles = [None] * len(params)
    for q in {p.q for p in params}:
        at = [(i, p) for i, p in enumerate(params) if p.q == q]
        if q == 2:
            for i, p in at:
                moments, g = _minimal_solve(p.h, p.k)
                angle = _angle(p.h, p.k, moments, _MATH)
                bundles[i] = ModelBundle(params=p, moments=moments, angle=angle, g=g)
            continue
        h, k = (np.array([getattr(p, name) for _, p in at], float) for name in "hk")
        levels, gap, g = _block_ground(h, k, q)
        _check_ground(h, k, gap, levels)
        for (i, p), row in zip(at, g):
            moments = GroundMoments(*map(float, _ground_moments(p.h, p.k, row, q)))
            angle = FeedbackAngle(*map(float, _angle(p.h, p.k, moments)))
            bundles[i] = ModelBundle(params=p, moments=moments, angle=angle, g=row.reshape(2, q))
    return bundles


def star_model(params: ModelParams) -> ModelBundle:
    """The bundle of one model: `star_models` of a stack of one."""
    return star_models([params])[0]


def _angle(h, k, moments: GroundMoments, xp=np) -> FeedbackAngle:
    """xi, eta and theta from the ground moments (derived in
    `exact_energies`); broadcasts like it, or takes floats with xp = _MATH."""
    xi = -2.0 * h * moments.zj - 4.0 * k * moments.xx
    eta = 2.0 * h * moments.xx - 4.0 * k * moments.zj
    return FeedbackAngle(theta=0.5 * xp.arctan2(eta, xi), xi=xi, eta=eta)


def exact_energies(h, k, moments: GroundMoments, xp=np) -> tuple[float, ReceiverEnergy]:
    """(E0, ReceiverEnergy) of the protocol in closed form from the three
    ground moments; h, k and the moments broadcast over arrays, or are
    floats with xp = _MATH.

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
    a = _angle(h, k, moments, xp)
    s, c = xp.sin(a.theta), xp.cos(a.theta)
    hz = -2.0 * h * s * (s * moments.zj + c * moments.xx)
    hx = -4.0 * k * s * (s * moments.xx - c * moments.zj)
    den = a.xi + xp.hypot(a.xi, a.eta)
    # floats overflow silently; at q = 2, xi >= 2r makes den at least 1.4
    # times every other value a record forms, so it alone is checked
    if xp is _MATH and not math.isfinite(den):
        raise FloatingPointError(_OVERFLOW)
    e_j = -0.5 * a.eta * (a.eta / den)
    return -h * moments.z0, ReceiverEnergy(hx=hx, hz=hz, e_j=e_j, e_b=-e_j)


def _minimal_eb(h, k, field_term: bool) -> list[np.ndarray]:
    """E_B of the minimal model at arrays h and k, and with field_term -HZ_1:
    `exact_energies` on the closed-form moments, after the checks, forming
    no block vector, no HX_1 and, without field_term, no theta."""
    r, _, gap = _minimal_levels(h, k, np)
    _check_ground(h, k, gap)
    zj, xx = -h / r, -k / r
    xi, eta = -2.0 * h * zj - 4.0 * k * xx, 2.0 * h * xx - 4.0 * k * zj
    columns = [0.5 * eta * (eta / (xi + np.hypot(xi, eta)))]
    if field_term:
        theta = 0.5 * np.arctan2(eta, xi)
        s, c = np.sin(theta), np.cos(theta)
        columns.append(2.0 * h * s * (s * zj + c * xx))
    return columns
