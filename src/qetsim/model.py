"""The {3,q} star model with zero-point offsets, its ground state, and the
feedback angle.

Site-count convention for the star family: a {3,q} network cell is modeled
with q qubits, the sender at site 0 and q-1 receivers at sites 1..q-1, each
coupled to the sender by 2k X0Xj.  The q=2 member of the family is exactly
Hotta's 2-qubit minimal model, so both are built by `star_model`.

The star's ground state is solved by `star_models` in the receivers'
total-spin blocks, as their q x q parity chains (`_block_ground`, then
`_check_ground`), never from the 2^q x 2^q matrix; at q = 2 it is one
closed form, `_minimal_levels`, with no eigensolver.  It is
receiver-symmetric, so three Pauli moments, <Z_0>, <Z_j> and <X_0 X_j>,
set every offset and the one feedback angle all receivers share, and
`exact_energies` turns them into every exact number of the protocol, once
per model, in its bundle.  A q = 2 bundle is formed on floats by `math`
(`_minimal_solve`), so the minimal model's runs never load numpy; only a
`sweep` grid solves q = 2 on arrays (`_minimal_eb`), a chunk at a time.

H is the sum of the local terms h Z_i (field at site i) and 2k X_0 X_j
(coupling of receiver j to the sender), each with the offset that makes its
ground expectation vanish: -h <Z_0>, -h <Z_j> and -2k <X_0 X_j>.  Only the
moments are kept; a term is formed where it is read, at the site read.
"""

from __future__ import annotations

import math
import operator
import sys
from types import SimpleNamespace
from typing import NamedTuple, Union

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


# typing.NamedTuple forbids `__new__` in a class body, so each params type
# checks its values in a `__new__` over a NamedTuple base
class MinimalModelParams(NamedTuple("MinimalModelParams", [("h", float), ("k", float)])):
    """h and k of the minimal model: the q = 2 star, reported as "minimal"."""

    __slots__ = ()
    kind = "minimal"

    def __new__(cls, h: float, k: float):
        _check_hk(h, k)
        return super().__new__(cls, float(h), float(k))

    @property
    def q(self) -> int:
        return 2


class StarModelParams(NamedTuple("StarModelParams", [("h", float), ("k", float), ("q", int)])):
    """h, k and the coordination number q of the {3,q} tiling (q sites).

    q = 2 is allowed as the degenerate member of the family: one sender and
    one receiver, which is exactly the minimal model.
    """

    __slots__ = ()
    kind = "star"

    def __new__(cls, h: float, k: float, q: int):
        _check_hk(h, k)
        if not hasattr(q, "__index__"):  # what operator.index accepts
            raise ValueError(f"q must be an integer, got {q!r}")
        if q < 2:
            raise ValueError("q must be at least 2")
        if q > MAX_STATEVECTOR_QUBITS:
            raise ValueError(f"q = {q} exceeds the {MAX_STATEVECTOR_QUBITS}-qubit statevector guard")
        return super().__new__(cls, float(h), float(k), operator.index(q))


ModelParams = Union[MinimalModelParams, StarModelParams]


class GroundMoments(NamedTuple):
    """Pauli-part ground moments of the star: <Z_0>, and <Z_j> and <X_0 X_j>,
    which are the same for every receiver j (arrays over a grid of (h, k))."""

    z0: float
    zj: float
    xx: float


class ModelBundle(NamedTuple):
    """The parameters, the ground moments, the feedback angle and exact
    energies every receiver shares, the block vector and E0 of one star.

    The moments set every local term's offset (see the module docstring).
    The ground state is sum_{s, n} g[s, n] |s> (x) |D_n>, |D_n> the
    receivers' normalized Dicke state with n ones (`_block_ground`).
    """

    params: ModelParams
    moments: GroundMoments
    angle: FeedbackAngle
    g: np.ndarray  # shape (2, q); at q = 2 nested tuples, g[s][n]
    e0: float
    energy: ReceiverEnergy

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


def _spin_chains(h, k, d: int) -> np.ndarray:
    """The star's Pauli part on the sender times one receiver spin-J block,
    d = 2J, as its two parity chains [..., p, n, n'], stacked over h and k.

    With J the receivers' total spin, H = h Z0 + 2h J_z + 4k X0 J_x.  On
    |s> (x) |J, J - n>, s the sender bit, 4k X0 J_x links (s, n) with
    (1 - s, n + 1) by 2k sqrt((n + 1)(d - n)), keeping s + n mod 2: chain p
    runs over n = 0..d with s = (n + p) mod 2, its diagonal h (1 - 2s) +
    h (d - 2n).  For d = q - 1, |J, J - n> is the Dicke state with n ones.
    """
    h, k = (np.asarray(a, float)[..., None, None] for a in np.broadcast_arrays(h, k))
    n = np.arange(d + 1)
    chains = np.zeros(h.shape[:-2] + (2, d + 1, d + 1))
    chains[..., n, n] = h * (1 - 2 * ((n + np.arange(2)[:, None]) % 2)) + h * (d - 2.0 * n)
    lower, upper = n[:-1], n[:-1] + 1
    chains[..., lower, upper] = chains[..., upper, lower] = 2.0 * k * np.sqrt(upper * (d - lower))
    return chains


def _check_ratio(ratio: float) -> None:
    """Raise on `ratio`, the largest h/k of a solve, above MAX_FIELD_RATIO;
    a q >= 3 solve checks it before its `eigh`, which far above the bound
    may not converge (q = 4, h = 1e250, k = 1, for one)."""
    if ratio > MAX_FIELD_RATIO:
        raise IllConditionedError(f"ill-conditioned: h/k = {ratio:.3g} > {MAX_FIELD_RATIO:g}")


def _check_ground(h, k, gap, levels=None) -> None:
    """Raise on a gap below DEGENERACY_TOL * max(h, k), named where it is
    smallest relative to max(h, k), with whether it is within `levels'`
    roundoff, 16 eps |H|: the feedback angle is undefined on a degenerate
    ground space.  It runs after the solve, whose h/k `_check_ratio` has
    already passed."""
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
    """The ground level -2r, r = hypot(h, k), the gap 2r - 2k = 2h^2 /
    (r + k), which does not cancel, and the moments <Z_0> = <Z_1> = -h/r and
    <X_0 X_1> = -k/r of Hotta's minimal model, the q = 2 star, on arrays
    (xp = np) or floats (xp = _MATH).  H = h (Z_0 + Z_1) + 2k X_0 X_1 is
    [[2h, 2k], [2k, -2h]] on {|00>, |11>} and [[0, 2k], [2k, 0]] on {|01>,
    |10>}, so its levels are -2r, -2k, 2k and 2r.  With t = 1 + h/r the
    ground state is (k/r) / sqrt(2t) |00> - sqrt(t/2) |11>, neither factor
    under- nor overflowing at any accepted (h, k)."""
    r = xp.hypot(h, k)
    return -2.0 * r, 2.0 * h * (h / (r + k)), GroundMoments(z0=-h / r, zj=-h / r, xx=-k / r)


def _minimal_solve(h: float, k: float) -> tuple[GroundMoments, tuple]:
    """The q = 2 moments and block vector g[s][n] on floats: an overflow
    check, then h/k and the gap, checked as for a q >= 3 solve."""
    ground, gap, moments = _minimal_levels(h, k, _MATH)
    if not math.isfinite(ground):
        raise FloatingPointError(_OVERFLOW)
    _check_ratio(h / k)
    if not gap >= DEGENERACY_TOL * max(h, k):
        raise DegenerateGroundError(_degenerate_message(h, k, gap, False))
    t = 1.0 - moments.z0
    g = (-moments.xx / math.sqrt(2.0 * t), 0.0), (0.0, -math.sqrt(0.5 * t))
    return moments, g


def _block_ground(h, k, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chains' levels [..., p, i], the gap and the block vector g of the
    q >= 3 star's Pauli part at every (h, k) of the broadcast arrays, for
    `_check_ground`.  H keeps the parity prod_i Z_i and, after a Z_0 sign
    gauge, is stoquastic with each parity sector connected, so each
    sector's ground state is unique and receiver-symmetric: it lies in the
    top total-spin block J = (q - 1)/2, as the lowest level of its chain
    p = q mod 2, which holds the all-down state.  The gap is taken against
    chain p's next level, the other chain's lowest (their distance, should
    it lie below, as only a degenerate point lets it) and the lowest of the
    J - 1 block's chains (d = q - 3), and of no lower block: the lowest
    level rises as J falls, a Lieb-Mattis ordering (E. Lieb and D. Mattis,
    J. Math. Phys. 3, 749 (1962)) that `test_model` checks, with chain p's
    hold on the ground, against every block for q <= 64, where each lower
    block lies at least ~2 max(h, k) above the J - 1 one.  So the solve is
    one stacked q x q `eigh` and one `eigvalsh`: at h = 0.15 q, k = 2 it
    takes 2.8 ms at q = 100 and 41 ms at q = 400 (2 vCPU, numpy 2.4).  g is
    written in the bundle's layout g[..., s, n], zero off chain p.
    """
    p, n = q % 2, np.arange(q)
    vals, vecs = np.linalg.eigh(_spin_chains(h, k, q - 1))
    ground = vals[..., p, 0]
    lower = np.linalg.eigvalsh(_spin_chains(h, k, q - 3))[..., 0].min(axis=-1)
    gap = np.minimum(np.minimum(vals[..., p, 1], lower) - ground, abs(vals[..., 1 - p, 0] - ground))
    g = np.zeros(ground.shape + (2, q))
    g[..., (n + p) % 2, n] = vecs[..., p, :, 0]
    return vals, gap, g


def _ground_moments(g, q: int) -> GroundMoments:
    """<Z_0>, <Z_j> and <X_0 X_j> of the q >= 3 ground state with block
    vector g, broadcasting like it (at q = 2, `_minimal_levels`).  With
    d = q - 1, <Z_j> = <2 J_z>/d and <X_0 X_j> = <X_0 2 J_x>/d, X_0 J_x
    linking g[..., s, n] with g[..., 1 - s, n + 1] by sqrt((n + 1)(d - n)) / 2.
    """
    leaves, n = q - 1, np.arange(q)
    up, down = g[..., 0, :], g[..., 1, :]
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
    """The bundle of each model, all of one q (else ValueError, as for no
    model); MinimalModelParams give the q = 2 star.

    The offsets cannot change the eigenvectors, so the ground states are
    solved on the Pauli parts alone: at q >= 3 by one stacked
    `_block_ground`, its h/k checked before the solve and its gaps after
    it, each bundle reading its moments from its own row of g, as a solve
    of that model alone does (a product over the stack would round them
    differently); at q = 2 each alone, on floats (`_minimal_solve`), so a
    q = 2 stack raises at its first failing model.  `exact_energies` turns
    each model's moments into its angle and energies, on floats by `math`
    at q = 2 and on numpy at q >= 3, kept as floats.
    """
    qs = sorted({p.q for p in params})
    if len(qs) != 1:
        raise ValueError(f"star_models needs models of one q, got q values {qs}")
    q = qs[0]
    if q == 2:
        xp, solved = _MATH, [_minimal_solve(p.h, p.k) for p in params]
    else:
        h, k = (np.array([getattr(p, name) for p in params], float) for name in "hk")
        _check_ratio(max(p.h / p.k for p in params))
        levels, gap, g = _block_ground(h, k, q)
        _check_ground(h, k, gap, levels)
        xp, solved = np, [(GroundMoments(*map(float, _ground_moments(row, q))), row) for row in g]
    bundles = []
    for p, (moments, g) in zip(params, solved):
        e0, energy, angle = exact_energies(p.h, p.k, moments, xp)
        bundles.append(ModelBundle(p, moments, FeedbackAngle(*map(float, angle)), g,
                                   float(e0), ReceiverEnergy(*map(float, energy))))
    return bundles


def star_model(params: ModelParams) -> ModelBundle:
    """The bundle of one model: `star_models` of a stack of one."""
    return star_models([params])[0]


def _xi_eta(h, k, moments: GroundMoments) -> tuple:
    """xi and eta from the ground moments (derived in `exact_energies`)."""
    return -2.0 * h * moments.zj - 4.0 * k * moments.xx, 2.0 * h * moments.xx - 4.0 * k * moments.zj


def _lowest_energy(xi, eta, xp=np):
    """E_j at the optimal theta, -eta^2 / (2 (xi + hypot(xi, eta)))."""
    den = xi + xp.hypot(xi, eta)
    # floats overflow silently; at q = 2, xi >= 2r makes den at least 1.4
    # times every other value a record forms, so it alone is checked
    if xp is _MATH and not math.isfinite(den):
        raise FloatingPointError(_OVERFLOW)
    return -0.5 * eta * (eta / den)


def exact_energies(h, k, moments: GroundMoments,
                   xp=np) -> tuple[float, ReceiverEnergy, FeedbackAngle]:
    """(E0, ReceiverEnergy, FeedbackAngle) of the protocol in closed form
    from the three ground moments; h, k and the moments broadcast over
    arrays, or are floats with xp = _MATH.

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
    xi, eta = _xi_eta(h, k, moments)
    theta = 0.5 * xp.arctan2(eta, xi)
    s, c = xp.sin(theta), xp.cos(theta)
    hz = -2.0 * h * s * (s * moments.zj + c * moments.xx)
    hx = -4.0 * k * s * (s * moments.xx - c * moments.zj)
    e_j = _lowest_energy(xi, eta, xp)
    energy = ReceiverEnergy(hx=hx, hz=hz, e_j=e_j, e_b=-e_j)
    return -h * moments.z0, energy, FeedbackAngle(theta=theta, xi=xi, eta=eta)


def _minimal_eb(h, k, field_term: bool) -> list[np.ndarray]:
    """E_B, and with field_term -HZ_1, of the minimal model on arrays h and
    k whose points include (max h, min k), where h/k peaks."""
    _, gap, moments = _minimal_levels(h, k, np)
    _check_ratio(float(np.max(h)) / float(np.min(k)))
    _check_ground(h, k, gap)
    if field_term:
        energy = exact_energies(h, k, moments)[1]
        return [energy.e_b, -energy.hz]
    return [-_lowest_energy(*_xi_eta(h, k, moments))]
