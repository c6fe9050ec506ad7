"""Shot-based Monte Carlo estimation of the protocol observables.

A Z-run reads the sender and the receivers out in the Z basis, an X-run in
the X basis; they never share shots.  The star is symmetric under any
permutation of its receivers, so a run's law of (mu, readout), taken from
the protocol pass, depends on the receiver bits only through their Hamming
weight, and the per-receiver tallies of (mu, sender bit, receiver bit), all
the estimators read, are drawn exactly from O(|R|^2) binomials at any shot
count.  Randomness comes from the standard library's `random.Random`, keyed
by master seed, model parameters, receiver set and basis.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .model import Local, ModelBundle, ReceiverEnergy
from .protocol import QetRecord, pass_sites, run_protocol

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
    fields = [int.from_bytes(np.float64(x).tobytes(), "little") for x in (p.h, p.k)]
    return [plan.master_seed, _FAMILY_CODE, p.q, *fields, _BASIS_CODES[plan.basis_run], *receivers]


def readout_law(fed: np.ndarray, basis: str) -> np.ndarray:
    """Joint (mu, outcome) probabilities, shape (2, 2^n), of one basis run of
    a pass array fed[mu, m, outcome] over n read-out sites: the sum over m of
    fed^2, after one Hadamard on each site's axis in an X-run."""
    n = fed.shape[-1].bit_length() - 1
    if basis == "X":
        for i in range(n):
            x = fed.reshape(2, -1, 2, 2 ** (n - 1 - i))  # site i's bit on axis 2
            fed = np.stack([x[:, :, 0] + x[:, :, 1], x[:, :, 0] - x[:, :, 1]], axis=2)
        fed = fed.reshape(2, -1, 2**n) * 2.0 ** (-n / 2)
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
    weight w) by conditional binomials; then, in `pass_sites` order, a group
    of shots with u ones among the L receivers not yet visited gives
    Binomial(count, u / L) ones to the next, since a shot's receiver bits
    are uniform among the strings of its weight."""
    if plan.basis_run not in _BASIS_CODES:
        raise ValueError(f"basis_run must be 'Z' or 'X', got {plan.basis_run!r}")
    if not 1 <= plan.shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}")
    sites = pass_sites(receivers)
    if fed.shape[::2] != (2, 2 ** len(sites)):
        raise ValueError(f"pass array of shape {fed.shape} does not read out sites {sites}")
    r = len(receivers)
    cell = np.arange(2 ** (r + 1))
    cls = (cell >> r) * (r + 1) + np.bitwise_count(cell & (2**r - 1))  # b0 (r + 1) + w
    law = readout_law(fed, plan.basis_run)
    p = np.concatenate([np.bincount(cls, row, 2 * r + 2) for row in law]).tolist()
    rng = random.Random(" ".join(map(str, _seed_key(bundle, receivers, plan))))
    left, draws = plan.shots, []
    for i, pi in enumerate(p):
        draws.append(_binomial(rng, left, pi / sum(p[i:])) if pi else 0)
        left -= draws[-1]
    # groups[2 mu + b0][u]: shots with u ones among the receivers not yet visited
    groups = [draws[i:i + r + 1] for i in range(0, 4 * r + 4, r + 1)]
    counts = [[sum(g) * (b == i % 2) for i, g in enumerate(groups) for b in (0, 1)]]
    for unvisited in range(r, 0, -1):
        counts.append([])
        for i, g in enumerate(groups):
            ones = [0] + [_binomial(rng, g[u], u / unvisited) for u in range(1, unvisited + 1)]
            counts[-1] += [sum(g) - sum(ones), sum(ones)]
            groups[i] = [g[u] - ones[u] + ones[u + 1] for u in range(unvisited)]
    return SampleTallies(plan.basis_run, plan.shots, sites, tuple(counts))


def estimate(tallies: SampleTallies, local: Local) -> tuple[float, float]:
    """Mean and standard error of a local term, a Z on one read-out site or
    an X-run's X0 X_j, from one basis run.  A shot reads offset + coeff when
    its bits on `local.sites` have even parity, offset - coeff when odd (as
    counted on the tallies of the local's last site).  The mean is the
    shot-weighted average of the two, which does not cancel when the offset
    nearly balances the coefficient; stderr is their sample standard
    deviation over sqrt(N).  The squares are products, which give inf where
    `**` raises OverflowError; a result that is not finite raises
    FloatingPointError."""
    sites, on = tallies.sites, local.sites
    pair = len(on) == 2 and on[0] == 0  # X0 X_j reads the sender's bit too
    if local.basis != tallies.basis or not set(on) <= set(sites) or len(on) > 1 + pair:
        raise ValueError(f"local {local.basis} on sites {on} is not measurable from a "
                         f"{tallies.basis}-run of sites {sites}")
    c = tallies.counts[sites.index(on[-1])] if on else [0] * 8
    odd = sum(c[2 * g + (1 ^ (g & pair))] for g in range(4))  # g = 2 mu + b0
    n = tallies.shots
    even_value, odd_value = local.offset + local.coeff, local.offset - local.coeff
    mean = ((n - odd) * even_value + odd * odd_value) / n
    stderr = 0.0
    if n >= 2:
        even_dev, odd_dev = even_value - mean, odd_value - mean
        var = ((n - odd) * (even_dev * even_dev) + odd * (odd_dev * odd_dev)) / (n - 1)
        stderr = math.sqrt(var / n)
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise FloatingPointError(f"overflow in the estimate of {local.basis} on {on}")
    return float(mean), stderr


def sampled_record(bundle: ModelBundle, receivers: tuple[int, ...], shots: int,
                   master_seed: int) -> QetRecord:
    """Shot-sampled analogue of `exact_record` from one `run_protocol` pass:
    E0 from the Z-run's sender field term (its post-measurement mean is the
    injected energy), and each receiver's Z-run and X-run terms, with
    quadrature standard errors."""
    fed = run_protocol(bundle, receivers)
    z_tallies = sample_protocol(bundle, fed, receivers, ShotPlan("Z", shots, master_seed))
    x_tallies = sample_protocol(bundle, fed, receivers, ShotPlan("X", shots, master_seed))
    e0, e0_err = estimate(z_tallies, bundle.locals["Z0"])
    stderr, energies = {"E0": e0_err}, {}
    for j in receivers:
        hz, hz_err = estimate(z_tallies, bundle.locals[f"Z{j}"])
        hx, hx_err = estimate(x_tallies, bundle.locals[f"X{j}"])
        energies[j] = ReceiverEnergy(hx=hx, hz=hz, e_j=hx + hz, e_b=-(hx + hz))
        stderr.update({f"HZ{j}": hz_err, f"HX{j}": hx_err,
                       f"E{j}": float(np.hypot(hx_err, hz_err))})
    return QetRecord(model=bundle.params, e0=e0, angle=bundle.angle, receivers=energies,
                     method="sampled", stderr=stderr)
