"""Shot-based Monte Carlo estimation of the protocol observables.

A Z-run reads the sender and the receivers out in the Z basis, an X-run in
the X basis; they never share shots.  The star is symmetric under any
permutation of its receivers, so a run's law of (mu, readout), read from
the protocol pass's Dicke classes, is a law of (mu, sender bit, receiver
weight), and the per-receiver tallies of (mu, sender bit, receiver bit), all
the estimators read, are drawn exactly from O(|R|^2) binomials at any shot
count.  Randomness comes from the standard library's `random.Random`, keyed
by master seed, model parameters, receiver set and basis.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from typing import NamedTuple

from ._kernels import np
from .model import ModelBundle, ReceiverEnergy
from .protocol import QetRecord, dicke_rotation

_BASIS_CODES = {"Z": 0, "X": 1}
_FAMILY_CODE = 2  # the star family's tag in the seed key; the minimal model is the q = 2 star
# the documented `--shots` range; tallies are Python ints, so it is no tally width
MAX_SHOTS = 2**63 - 1


class ShotPlan(NamedTuple):
    basis_run: str  # "Z" | "X"
    shots: int
    master_seed: int


class SampleTallies(NamedTuple):
    basis: str
    shots: int
    sites: tuple[int, ...]  # read out, sender first
    # counts[i][4 mu + 2 b0 + b]: shots with mu (0 for +1), sender bit b0 and
    # bit b at sites[i]; for the sender itself, b is b0
    counts: tuple[list[int], ...]


def _seed_key(bundle: ModelBundle, receivers: tuple[int, ...], plan: ShotPlan) -> list[int]:
    p = bundle.params
    fields = [int.from_bytes(struct.pack("<d", x), "little") for x in (p.h, p.k)]
    return [plan.master_seed, _FAMILY_CODE, p.q, *fields, _BASIS_CODES[plan.basis_run], *receivers]


@functools.cache
def _receiver_hadamard(r: int) -> np.ndarray:
    """The r receivers' Hadamards on their Dicke states, the Dicke matrix of
    R(pi/4) Z, transposed, read-only: built once per receiver count."""
    root_half = math.sqrt(0.5)
    matrix = (dicke_rotation(r, root_half, root_half) * (-1.0) ** np.arange(r + 1)).T
    matrix.flags.writeable = False
    return matrix


def readout_law(fed: np.ndarray, basis: str) -> np.ndarray:
    """Class probabilities law[mu, b0, w] of one basis run of a pass array
    fed[mu, m, s, w], summed over m; an X-run's Hadamards act on the
    receivers as the Dicke matrix of R(pi/4) Z, on the sender as the sum and
    difference of its rows, which keeps the classes b0 != mu exactly 0."""
    if basis == "X":
        fed = fed @ _receiver_hadamard(fed.shape[-1] - 1)
        fed = np.stack([fed[:, :, 0] + fed[:, :, 1], fed[:, :, 0] - fed[:, :, 1]], axis=2)
        return 0.5 * np.sum(fed**2, axis=1)
    return np.sum(fed**2, axis=1)


def _stirling_tail(k: int) -> float:
    """log k! minus (k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2."""
    if k < 10:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + k + 1 - math.log(math.tau) / 2
    x2 = float(k + 1) ** 2
    return (1 / 12 - (1 / 360 - 1 / 1260 / x2) / x2) / (k + 1)


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw: Devroye's geometric method below n p = 10,
    else Hoermann's BTRS, after CPython 3.12's `random.binomialvariate`.
    Unlike it, this takes the log of 1 - u, never 0, and of 1 - p by log1p,
    and forms BTRS's acceptance test from Stirling tails, so that it keeps
    its digits up to n = 2^63."""
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return int(rng.random() < p)
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    if n * p < 10.0:
        x, y, c = 0, 0, math.log1p(-p)
        while True:
            y += math.floor(math.log(1.0 - rng.random()) / c) + 1
            if y > n:
                return x
            x += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a, c, vr = -0.0873 + 0.0248 * b + 0.01 * p, n * p + 0.5, 0.92 - 4.2 / b
    alpha, lr = (2.83 + 5.1 / b) * spq, math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + c) if us else -1
        if not 0 <= k <= n:
            continue
        v = rng.random()
        if us >= 0.07 and v <= vr:
            return k
        # log f(k) / f(m) by Stirling's formula, with d = k - m exact
        d = k - m
        tails = _stirling_tail(m) + _stirling_tail(n - m) - _stirling_tail(k)
        log_ratio = (d * (lr + math.log((n - k + 1) / (k + 1))) + tails - _stirling_tail(n - k)
                     - (m + 0.5) * math.log1p(d / (m + 1))
                     - (n - m + 0.5) * math.log1p(-d / (n - m + 1)))
        if math.log(v * alpha / (a / (us * us) + b)) <= log_ratio:
            return k


def sample_protocol(bundle: ModelBundle, fed: np.ndarray, receivers: tuple[int, ...],
                    plan: ShotPlan) -> SampleTallies:
    """Tally `plan.shots` shots of one basis run of `fed`, `run_protocol`'s
    array for `receivers`: the counts of the classes (mu, b0, receiver
    weight w) by conditional binomials; then, in site order, a group of
    shots with u ones among the L receivers not yet visited gives
    Binomial(count, u / L) ones to the next, since a shot's receiver bits
    are uniform among the strings of its weight."""
    if plan.basis_run not in _BASIS_CODES:
        raise ValueError(f"basis_run must be 'Z' or 'X', got {plan.basis_run!r}")
    shots = plan.shots
    if isinstance(shots, bool) or not isinstance(shots, int) or not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}, an int, got {shots!r}")
    sites, r = (0, *sorted(receivers)), len(receivers)
    if fed.shape[:1] + fed.shape[2:] != (2, 2, r + 1):
        raise ValueError(f"pass array of shape {fed.shape} does not read out sites {sites}")
    p = readout_law(fed, plan.basis_run).ravel().tolist()
    rng = random.Random(" ".join(map(str, _seed_key(bundle, receivers, plan))))
    left, draws = shots, []
    for i, pi in enumerate(p):
        # a draw from n = 0 or p = 0 takes no uniform, so skipping it keeps every bit
        draws.append(_binomial(rng, left, pi / sum(p[i:])) if pi and left else 0)
        left -= draws[-1]
    # groups[2 mu + b0][u]: shots with u ones among the receivers not yet visited
    groups = [draws[i:i + r + 1] for i in range(0, 4 * r + 4, r + 1)]
    counts = [[sum(g) * (b == i % 2) for i, g in enumerate(groups) for b in (0, 1)]]
    for unvisited in range(r, 0, -1):
        counts.append([])
        for i, g in enumerate(groups):
            ones = [0] + [_binomial(rng, g[u], u / unvisited) if g[u] else 0
                          for u in range(1, unvisited + 1)]
            counts[-1] += [sum(g) - sum(ones), sum(ones)]
            groups[i] = [g[u] - ones[u] + ones[u + 1] for u in range(unvisited)]
    return SampleTallies(plan.basis_run, shots, sites, tuple(counts))


def estimate(tallies: SampleTallies, site: int, coeff: float, offset: float) -> tuple[float, float]:
    """Mean and standard error of the local term coeff * P + offset from one
    basis run, P being Z_site in a Z-run and X_0 X_site in an X-run.  A shot
    reads offset + coeff when P is +1 on it, offset - coeff when -1 (as
    counted on the site's tallies).  The mean is the shot-weighted average
    of the two, which does not cancel when the offset nearly balances the
    coefficient; stderr is their sample standard deviation over sqrt(N).
    The deviations from the mean are scaled by 2^-e, e the larger one's
    exponent, before they are squared and the root scaled back, so stderr
    neither under- nor overflows where they do not; a result that is not
    finite raises FloatingPointError."""
    basis, sites = tallies.basis, tallies.sites
    if site not in sites:
        raise ValueError(f"site {site} is not read out by the {basis}-run of sites {sites}")
    pair = basis == "X"  # X0 X_j reads the sender's bit too
    c = tallies.counts[sites.index(site)]
    odd = sum(c[2 * g + (1 ^ (g & pair))] for g in range(4))  # g = 2 mu + b0
    n = tallies.shots
    even_value, odd_value = offset + coeff, offset - coeff
    mean = ((n - odd) * even_value + odd * odd_value) / n
    stderr = 0.0
    if n >= 2:
        e = math.frexp(max(abs(even_value - mean), abs(odd_value - mean)))[1]
        even_dev, odd_dev = math.ldexp(even_value - mean, -e), math.ldexp(odd_value - mean, -e)
        var = ((n - odd) * (even_dev * even_dev) + odd * (odd_dev * odd_dev)) / (n - 1)
        stderr = math.ldexp(math.sqrt(var / n), e)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        on = (0, site) if pair else (site,)
        raise FloatingPointError(f"overflow in the estimate of {basis} on {on}")
    return float(mean), stderr


def sampled_record(bundle: ModelBundle, fed: np.ndarray, receivers: tuple[int, ...],
                   shots: int, master_seed: int) -> QetRecord:
    """Shot-sampled analogue of `exact_record` from `fed`, the bundle's
    `run_protocol` array for `receivers`: E0 from the Z-run's sender field
    term (its post-measurement mean is the injected energy), and each
    receiver's Z-run and X-run terms, with quadrature standard errors."""
    z_tallies = sample_protocol(bundle, fed, receivers, ShotPlan("Z", shots, master_seed))
    x_tallies = sample_protocol(bundle, fed, receivers, ShotPlan("X", shots, master_seed))
    h, k2, m = bundle.params.h, 2.0 * bundle.params.k, bundle.moments
    e0, e0_err = estimate(z_tallies, 0, h, -(h * m.z0))
    stderr, energies = {"E0": e0_err}, {}
    for j in receivers:
        hz, hz_err = estimate(z_tallies, j, h, -(h * m.zj))
        hx, hx_err = estimate(x_tallies, j, k2, -(k2 * m.xx))
        energies[j] = ReceiverEnergy(hx=hx, hz=hz, e_j=hx + hz, e_b=-(hx + hz))
        stderr.update({f"HZ{j}": hz_err, f"HX{j}": hx_err,
                       f"E{j}": float(np.hypot(hx_err, hz_err))})
    return QetRecord(model=bundle.params, e0=e0, angle=bundle.angle, receivers=energies,
                     method="sampled", stderr=stderr)
