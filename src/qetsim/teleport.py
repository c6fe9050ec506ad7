"""State-teleportation relay chains and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections, which send two
classical bits.  The corrections make all four outcome branches identical on
the kept register, so relaying is an exact identity channel.

In the textbook protocol (Bennett et al., PRL 70, 1895 (1993)) each
corrected (m1, m2) branch is a 2 x 2 operator from the source qubit to the
pair's second qubit b; `_branch_ops` builds the four from the gates, and each
is c_b I with |c_b|^2 = 1/4.  So a hop leaves any relayed state as it was,
and its bits' law, |c_b|^2, is the same on every hop and for every state.
`relay`, the package's one teleport, is therefore that law: it checks the
four operators once per call and draws each hop's two bits from |c_b|^2
with two uniforms; a 1000-hop relay takes ~0.7 ms (2 vCPU, numpy 2.4).
Without an rng the (0, 0) branch is kept and no bits are returned.
The long-range run draws mu and every hop's uniforms from the standard
library's `random.Random(seed)`, so it never imports `numpy.random`; it
reads the receiver's energies off the protocol pass's two mu rows, which the
relay leaves as they are, and checks them against the closed-form exact
record.
`LoccTranscript` holds only the hop count and the drawn bits; its
`serialize` alone names the nodes and lays out the lines, yielding the text
a chunk of hops at a time so that a long transcript is never held whole.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import IllConditionedError, MinimalModelParams, star_model
from .protocol import QetRecord, exact_record, run_protocol


@dataclass(frozen=True, eq=False)
class LoccTranscript:
    """The long-range run's LOCC messages: alice's mu broadcast, then each
    hop's two correction bits.  `mu` and `branches` (each hop's 2 * m1 + m2)
    are None for an unsampled run, whose bits serialize as ``x``."""

    hops: int
    mu: int | None
    branches: np.ndarray | None

    def serialize(self) -> Iterator[str]:
        """One ``seq sender receiver purpose bit`` line per measured bit, as
        text chunks of at most TRANSCRIPT_CHUNK_HOPS hops each."""
        yield f"0 alice all mu-broadcast {'x' if self.mu is None else self.mu}\n"
        line = "%d %s %s teleport-corrections %s\n"
        for start in range(0, self.hops, TRANSCRIPT_CHUNK_HOPS):
            stop = min(start + TRANSCRIPT_CHUNK_HOPS, self.hops)
            # nodes start..stop; node i sends hop i
            names = list(map("relay%d".__mod__, range(start, stop + 1)))
            if start == 0:
                names[0] = "charlie"
            if stop == self.hops:
                names[-1] = "bob"
            if self.branches is None:
                m1 = m2 = itertools.repeat("x")
            else:
                chunk = self.branches[start:stop]
                m1, m2 = (chunk >> 1).tolist(), (chunk & 1).tolist()
            # a hop's two lines are one %-format of eight values, the chunk's
            # lines one format: no Python code runs per line
            cells = zip(range(2 * start + 1, 2 * stop, 2), names, names[1:], m1,
                        range(2 * start + 2, 2 * stop + 1, 2), names, names[1:], m2)
            yield (line * (2 * (stop - start))) % tuple(itertools.chain.from_iterable(cells))

    def bit_count(self) -> int:
        return 1 + 2 * self.hops


BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
# Largest h/k or k/h `run_longrange_qet` accepts; see there.
MAX_RELAY_FIELD_RATIO = 1e4
# Largest hop count `run_longrange_qet` accepts.  A hop costs one `_draw` and
# one byte, so the transcript, not time, bounds it: `longrange
# --sample-transcript` at 10^6 hops writes a 108 MB transcript, a chunk of
# TRANSCRIPT_CHUNK_HOPS hops at a time, in ~1.7-1.8 s at a 36.8 MB peak
# (in-process, 2 vCPU, numpy 2.4).
MAX_HOPS = 10**6
TRANSCRIPT_CHUNK_HOPS = 4096


def _branch_ops() -> np.ndarray:
    """ops[2 m1 + m2], the (4, 2, 2) maps from the source qubit to b of the
    corrected (m1, m2) branches: source (x) BELL on (a, b), CNOT(source ->
    a), H(source), Z readouts m1 of the source and m2 of a, then X^m2 and
    Z^m1 on b."""
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    # (source, a, b, source in)
    paired = np.eye(2)[:, None, None, :] * BELL.reshape(2, 2)[:, :, None]
    flipped = np.stack([paired[0], paired[1, ::-1]])  # CNOT(source -> a)
    read = np.tensordot(hadamard, flipped, axes=1)  # (m1, m2, b, source in)
    x, z = (np.eye(2), np.eye(2)[::-1]), (np.eye(2), np.diag([1.0, -1.0]))
    return np.stack([z[m1] @ x[m2] @ read[m1, m2] for m1 in (0, 1) for m2 in (0, 1)])


def _draw(p: list[float], u1: float, u2: float) -> int:
    """2 * m1 + m2 from the branches' probabilities p: m1 by the uniform u1,
    then m2 given m1 by u2."""
    m1 = 0 if u1 < p[0] + p[1] else 1
    weight = p[2 * m1] + p[2 * m1 + 1]
    # a zero weight is reached only through the 1e-15 by which the checked
    # law may miss a total of 1; m2 is then 1
    m2 = 0 if weight and u2 < p[2 * m1] / weight else 1
    return 2 * m1 + m2


def relay(
    hops: int, rng: random.Random | np.random.Generator | None = None
) -> np.ndarray | None:
    """The correction bits of `hops` teleports, each through a fresh Bell
    pair, ancillas recycled.

    Without an rng every hop keeps branch (0, 0) and the bits are None; with
    one, any object with a `.random()` method, they are a (hops,) uint8
    array of 2 * m1 + m2, each hop's drawn by `_draw` from two uniforms, u1
    then u2.

    Every corrected branch operator is c_b I, so each hop is the identity
    channel on whatever it relays, and its bits' law |c_b|^2 is the same on
    every hop.  `relay` checks that once per call, at any hop count, 0
    included, with or without an rng: each of `_branch_ops()` must be c_b I
    within 1e-15, with the |c_b|^2 summing to 1 within 1e-15, so that
    MAX_HOPS hops stay within 1e-9.  A negative `hops` raises ValueError.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    ops = _branch_ops()
    scale = np.trace(ops, axis1=1, axis2=2) / 2
    law = np.abs(scale) ** 2
    # written as "not within" so that a nan fails too
    if not (np.max(np.abs(ops - scale[:, None, None] * np.eye(2))) <= 1e-15
            and abs(np.sum(law) - 1.0) <= 1e-15):
        raise AssertionError("teleportation branches disagree after correction")
    if rng is None:
        return None
    p = law.tolist()
    return np.fromiter((_draw(p, rng.random(), rng.random()) for _ in range(hops)),
                       dtype=np.uint8, count=hops)


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The measurement and feedback are `run_protocol`'s pass, on both sites of
    the q = 2 star, so its one spectator row holds the mu branches as two
    rows.  The relay is an identity channel, so those normalized rows are
    also the relayed ones, and one `relay` call gives the hops' bits.  The
    record is `exact_record`'s.  With a seed, mu and then every hop's bits
    are drawn from `random.Random(seed)`, which fill the transcript with
    concrete bits.  The third value is the largest difference of the rows'
    HX1, HZ1 and E1 from the record's closed forms.

    The pass loses those energies as the fields part, at any hop count: with
    the smaller field 1, by 1.8e-12 at h/k = 1e4 and 1.5e-8 at 1e8, and by
    4.3e-12 at k/h = 1e4 and 8.8e-10 at 1e6.  So h/k or k/h above
    MAX_RELAY_FIELD_RATIO raises IllConditionedError before any pass.
    """
    if not 1 <= hops <= MAX_HOPS:
        raise ValueError(f"hops must be in 1..{MAX_HOPS}, got {hops}")
    ratio = max(params.h / params.k, params.k / params.h)
    if ratio > MAX_RELAY_FIELD_RATIO:
        raise IllConditionedError(
            f"ill-conditioned: max(h/k, k/h) = {ratio:.3g} > {MAX_RELAY_FIELD_RATIO:.0e} "
            "for the relayed protocol pass"
        )
    bundle = star_model(params)
    exact = exact_record(bundle, (1,))
    fed = run_protocol(bundle, (1,))[:, 0].reshape(2, 4)  # one receiver's classes are |s b>
    probs = np.sum(fed**2, axis=-1)  # p_mu, mu = +1 then -1

    rows = fed / np.sqrt(probs)[:, None]
    rng = None if seed is None else random.Random(seed)
    drawn = 0 if rng is None else int(rng.random() >= probs[0])
    # Z1 reads the low bit of |s b>; X0 X1 maps index i to 3 - i
    z1 = probs @ (rows**2 @ np.array([1.0, -1.0, 1.0, -1.0]))
    xx = probs @ np.sum(rows * rows[:, ::-1], axis=-1)
    h, k2, m = bundle.params.h, 2.0 * bundle.params.k, bundle.moments
    hz = h * z1 - h * m.zj
    hx = k2 * xx - k2 * m.xx
    local = exact.receivers[1]
    delta = max(abs(hx - local.hx), abs(hz - local.hz), abs(hx + hz - local.e_j))
    transcript = LoccTranscript(hops, None if rng is None else drawn, relay(hops, rng))
    return exact, transcript, float(delta)

