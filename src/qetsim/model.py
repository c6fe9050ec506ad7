"""The {3,q} star model with zero-point offsets, its ground state, and the
feedback angle.

Site-count convention for the star family: a {3,q} network cell is modeled
with q qubits, the sender at site 0 and q-1 receivers at sites 1..q-1, each
coupled to the sender by 2k X0Xj.  The q=2 member of the family is exactly
Hotta's 2-qubit minimal model, so both are built by `star_model`.

`star_model` solves a star's ground state on floats, never from the
2^q x 2^q matrix.  It is receiver-symmetric, so three Pauli moments, <Z_0>,
<Z_j> and <X_0 X_j>, set every offset and the one feedback angle, and
`exact_energies` every exact number, on floats too.  A `sweep` grid is solved
on arrays.

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
    # an int beyond the float range is finite but has no float to convert to
    if not (0 < h < math.inf and 0 < k < math.inf) or any(
            isinstance(x, int) and x > sys.float_info.max for x in (h, k)):
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
    The ground state is sum_{s, n} g[s][n] |s> (x) |D_n>, |D_n> the
    receivers' normalized Dicke state with n ones."""

    params: ModelParams
    moments: GroundMoments
    angle: FeedbackAngle
    g: tuple  # g[s][n], nested tuples of 2 x q floats
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


def _chains(h: float, k: float, d: int) -> tuple[tuple[list, list], list[float]]:
    """The two parity chains of H = h Z0 + 2h J_z + 4k X0 J_x on the sender
    times a receiver spin-J block, d = 2J: their diagonals [p][n], h (1 - 2s)
    + h (d - 2n) on |s> (x) |J, J - n> with s = (n + p) mod 2, and the links
    2k sqrt((n + 1)(d - n)) of (s, n) and (1 - s, n + 1) that they share."""
    field = [h * m for m in range(d, -d - 1, -2)]
    diags = [f + h for f in field], [f - h for f in field]
    diags[0][1::2], diags[1][1::2] = diags[1][1::2], diags[0][1::2]
    return diags, [2.0 * k * math.sqrt((n + 1) * (d - n)) for n in range(d)]


def _low_blocks(h: float, k: float, q: int) -> tuple[list[float], list[float]]:
    """The chains of the q >= 3 star's top spin block J = (q - 1)/2 (|J, J - n>
    the Dicke state with n ones) and J - 1 block, as one chain unlinked where
    they meet, whose lowest level and gap are the star's: the lowest level
    rises as J falls (Lieb-Mattis ordering, J. Math. Phys. 3, 749 (1962))."""
    (top, a), (inner, b) = _chains(h, k, q - 1), _chains(h, k, q - 3)
    return top[0] + top[1] + inner[0] + inner[1], [*a, 0.0, *a, 0.0, *b, 0.0, *b]


def _below(rows: list[tuple[float, float]], x: float) -> int:
    """The Sturm count of a chain, as rows (diagonal entry, square of the link
    before it), at x: the negative (or zero) pivots of the LDL^T of chain - x."""
    count, pivot = 0, 1.0
    for a, b2 in rows:
        pivot = a - x - b2 / pivot
        if pivot <= 0.0:
            count, pivot = count + 1, pivot or -sys.float_info.min
    return count


def _bisect(rows, i: int, lo: float, hi: float, widths: float = math.inf, top: float = math.inf):
    """[lo, hi] around level i of a chain, bisected on `_below` until no float
    lies inside or, given `widths`, a count below `top`, a bound on level
    i + 1, puts that level at least `widths` bracket widths above hi."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if _below(rows, mid) > i else (mid, hi)
        if (mark := hi + widths * (hi - lo)) < top and _below(rows, mark) <= i + 1:
            break
    return lo, hi


def _star_levels(h: float, k: float, q: int) -> tuple[float, float]:
    """The q >= 3 star's ground level and gap (`_low_blocks`), each level
    bisected to the last bit from a Gershgorin bracket."""
    diag, links = _low_blocks(h, k, q)
    reach, rows = 2.0 * max(links), list(zip(diag, [0.0] + [b * b for b in links]))
    ground, first = (_bisect(rows, i, min(diag) - reach, max(diag) + reach)[1] for i in (0, 1))
    return ground, first - ground


def _check_ratio(ratio: float) -> None:
    """Raise on `ratio`, the largest h/k of a solve, above MAX_FIELD_RATIO."""
    if ratio > MAX_FIELD_RATIO:
        raise IllConditionedError(f"ill-conditioned: h/k = {ratio:.3g} > {MAX_FIELD_RATIO:g}")


# `math`'s functions under the names of numpy's that the closed forms call
_MATH = SimpleNamespace(arctan2=math.atan2, cos=math.cos, hypot=math.hypot, sin=math.sin)
# Floats overflow silently, to inf or nan, so a float form checks its own
# numbers and raises this, formatted with the star's q
_OVERFLOW = "overflow encountered in the q = {} closed form"


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
        raise FloatingPointError(_OVERFLOW.format(2))
    _check_ratio(h / k)
    if not gap >= DEGENERACY_TOL * max(h, k):
        raise DegenerateGroundError(_degenerate_message(h, k, gap, False))
    t = 1.0 - moments.z0
    g = (-moments.xx / math.sqrt(2.0 * t), 0.0), (0.0, -math.sqrt(0.5 * t))
    return moments, g


def _star_solve(h: float, k: float, q: int) -> tuple[GroundMoments, tuple]:
    """The q >= 3 moments and block vector g[s][n] on floats, h/k checked
    before and the gap (`_low_blocks`) after.  H keeps the parity prod_i Z_i
    and, after a Z_0 sign gauge, is stoquastic with connected parity sectors,
    so its ground state is the lowest level of the top block's chain p = q
    mod 2.  Sturm bisection (Barth, Martin and Wilkinson, 1967) brackets it
    until the next level lies 10^4 widths away; inverse iteration (Parlett,
    The Symmetric Eigenvalue Problem, ch. 7) then gains 4 digits a step."""
    _check_ratio(h / k)
    scale, p, d = max(h, k), q % 2, q - 1
    blocks, links = _low_blocks(h / scale, k / scale, q)
    rows = list(zip(blocks, [0.0] + [b * b for b in links]))
    chain, diag, links = rows[p * q:p * q + q], blocks[p * q:p * q + q], links[:d]
    # Gershgorin and the lowest diagonal bracket the ground level, and the
    # larger diagonal of two unlinked rows bounds the next (interlacing)
    lo = _bisect(chain, 0, min(diag) - 2 * max(links), min(diag), 1e4, sorted(diag[d % 2::2])[1])[0]
    # chain - lo is positive definite: its LDL^T needs no pivoting
    pivots, factors = [diag[0] - lo], [0.0]
    for (a, b2), b in zip(chain[1:], links):
        factors.append(b / pivots[-1])
        pivots.append(a - lo - b2 / pivots[-1])
    backward = list(zip(pivots[::-1], [0.0] + factors[:0:-1]))
    v, change = [1.0, -1.0] * (q // 2) + [1.0] * p, math.inf  # positive links: v alternates
    while change > 1e-16:  # then entries down to 1e-4 of the largest keep every digit
        z, forward = 0.0, []
        for x, f in zip(v, factors):
            z = x - f * z
            forward.append(z)
        y, back = 0.0, []
        for z, (pivot, f) in zip(reversed(forward), backward):
            y = z / pivot - f * y
            back.append(y)
        norm = math.hypot(*back)
        w = [y / norm for y in reversed(back)]
        step, v = max(map(abs, map(operator.sub, v, w))), w
        change = step if step < change else 0.0  # a step no smaller is roundoff
    if _below(rows, lo + 1.0 / norm + DEGENERACY_TOL) != 1:  # 1 / norm = ground - lo
        bound, gap = max(map(abs, blocks)) + 2 * max(links), _star_levels(h / scale, k / scale, q)[1]
        raise DegenerateGroundError(_degenerate_message(
            h, k, gap * scale, gap <= 16 * sys.float_info.epsilon * bound))  # bound >= |H|
    weights = [x * x for x in v]
    roots = map(math.sqrt, map(operator.mul, range(1, q), range(d, 0, -1)))
    moments = GroundMoments(
        z0=math.fsum(weights[p::2]) - math.fsum(weights[1 - p::2]),
        zj=math.fsum(map(operator.mul, weights, range(d, -q, -2))) / d,
        xx=2.0 * math.fsum(map(operator.mul, map(operator.mul, v, v[1:]), roots)) / d)
    return moments, tuple(tuple(x if (n + p) % 2 == s else 0.0 for n, x in enumerate(v))
                          for s in (0, 1))


def _degenerate_message(h: float, k: float, gap: float, unresolved: bool) -> str:
    """The gap at (h, k), absolute and relative to max(h, k), whether it is
    `unresolved`, within the solve's roundoff, and the point."""
    scale = max(h, k)
    return (
        f"ground space degenerate within tolerance (gap = {gap:.3e}, "
        f"{gap / scale:.3e} relative to max(h, k) = {scale:.3g}"
        + ("; below double precision, so the solve cannot resolve it)" if unresolved else ")")
        + f" at h = {h:.12g}, k = {k:.12g}"
    )


def star_model(params: ModelParams) -> ModelBundle:
    """The bundle of one model, solved on its Pauli part (the same
    eigenvectors), its numbers formed on floats by `math`.  An overflow
    leaves an inf or a nan in them, except in the denominator of
    `_lowest_energy`, whose inf reads as E_j = 0: so they and it must be
    finite, else FloatingPointError, as when a float step fails outright."""
    h, k, q = params.h, params.k, params.q
    moments, g = _minimal_solve(h, k) if q == 2 else _star_solve(h, k, q)
    try:
        e0, energy, angle = exact_energies(h, k, moments, _MATH)
        den = angle.xi + math.hypot(angle.xi, angle.eta)
        finite = all(map(math.isfinite, (e0, *energy, *angle, den)))
    except (ZeroDivisionError, ValueError):  # x / 0.0, math.sin(inf)
        finite = False
    if not finite:
        raise FloatingPointError(_OVERFLOW.format(q))
    return ModelBundle(params, moments, angle, g, e0, energy)


def _xi_eta(h, k, moments: GroundMoments) -> tuple:
    """xi and eta from the ground moments (derived in `exact_energies`)."""
    return -2.0 * h * moments.zj - 4.0 * k * moments.xx, 2.0 * h * moments.xx - 4.0 * k * moments.zj


def _lowest_energy(xi, eta, xp=np):
    """E_j at the optimal theta, -eta^2 / (2 (xi + hypot(xi, eta)))."""
    return -0.5 * eta * (eta / (xi + xp.hypot(xi, eta)))


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
    k whose points include (max h, min k), where h/k peaks; a degenerate
    ground raises, named where its gap relative to max(h, k) is smallest."""
    _, gap, moments = _minimal_levels(h, k, np)
    _check_ratio(float(np.max(h)) / float(np.min(k)))
    if not np.all(gap >= DEGENERACY_TOL * np.maximum(h, k)):
        i = np.unravel_index(np.argmin(gap / np.maximum(h, k)), np.shape(gap))
        h, k = (np.broadcast_to(x, np.shape(gap))[i] for x in (h, k))
        raise DegenerateGroundError(_degenerate_message(h, k, gap[i], False))
    if field_term:
        energy = exact_energies(h, k, moments)[1]
        return [energy.e_b, -energy.hz]
    return [-_lowest_energy(*_xi_eta(h, k, moments))]
