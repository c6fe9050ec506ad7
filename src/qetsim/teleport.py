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
with two uniforms.  Operators, law and bits are plain Python: a 1000-hop
relay takes ~0.2 ms and never loads numpy (2 vCPU, Python 3.11).
Without an rng the (0, 0) branch is kept and no bits are returned.
The long-range run is QET on the minimal model followed by that relay of
the receiver qubit (arXiv 2301.11884): since each hop is the identity, the
relayed energies are the local ones at any distance, so its record is the
closed-form `exact_record`.  It draws mu at 1/2, as <X_0> = 0 by parity,
and then every hop's uniforms, from the standard library's
`random.Random(seed)`, so it never imports `numpy.random`.
`LoccTranscript` holds only the hop count and the drawn bits; its
`serialize` alone names the nodes and lays out the lines, yielding the text
a chunk of hops at a time so that a long transcript is never held whole.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections.abc import Iterator
from typing import NamedTuple

from .model import MinimalModelParams, star_model
from .protocol import QetRecord, exact_record


class LoccTranscript(NamedTuple):
    """The long-range run's LOCC messages: alice's mu broadcast, then each
    hop's two correction bits.  `mu` and `branches` (each hop's 2 * m1 + m2
    in one byte: `bytes`, `array('B')` or any other buffer of bytes) are
    None for an unsampled run, whose bits serialize as ``x``."""

    hops: int
    mu: int | None
    branches: bytes | array | None

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
                chunk = bytes(self.branches[start:stop])
                m1, m2 = chunk.translate(_HIGH_BIT), chunk.translate(_LOW_BIT)
            # a hop's two lines are one %-format of eight values, the chunk's
            # lines one format: no Python code runs per line
            cells = zip(range(2 * start + 1, 2 * stop, 2), names, names[1:], m1,
                        range(2 * start + 2, 2 * stop + 1, 2), names, names[1:], m2)
            yield (line * (2 * (stop - start))) % tuple(itertools.chain.from_iterable(cells))

    def bit_count(self) -> int:
        return 1 + 2 * self.hops


BELL = (1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))  # |00> + |11>, amplitude index 2 a + b
# Largest hop count `run_longrange_qet` accepts.  A hop costs two uniforms and
# one byte, so the transcript, not time, bounds it: `longrange
# --sample-transcript` at 10^6 hops writes a 108 MB transcript, a chunk of
# TRANSCRIPT_CHUNK_HOPS hops at a time, in 1.1-1.7 s (median 1.4 s) at a
# 25.0-25.3 MB peak, without numpy (in-process, 5 runs; 2 vCPU, Python 3.11).
MAX_HOPS = 10**6
TRANSCRIPT_CHUNK_HOPS = 4096
# byte -> m1 and byte -> m2 of a hop's 2 * m1 + m2, for bytes.translate
_HIGH_BIT, _LOW_BIT = bytes(b >> 1 for b in range(256)), bytes(b & 1 for b in range(256))


def _branch_ops() -> list[list[list[float]]]:
    """ops[2 m1 + m2][b][s], the four 2 x 2 maps from the source qubit s to b
    of the corrected (m1, m2) branches: source (x) BELL on (a, b),
    CNOT(source -> a), H(source), Z readouts m1 of the source and m2 of a,
    then X^m2 and Z^m1 on b.  The readout leaves H[m1][s] BELL[a ^ s, b] at
    a = m2, with H[m1][s] = (-1)^(m1 s) / sqrt(2); X^m2 turns b into b ^ m2,
    and Z^m1 signs b = 1 by (-1)^m1."""
    hadamard = 1 / math.sqrt(2)
    return [[[(-1.0) ** (m1 * (b + s)) * hadamard * BELL[2 * (m2 ^ s) + (b ^ m2)]
              for s in (0, 1)] for b in (0, 1)] for m1 in (0, 1) for m2 in (0, 1)]


def _branch_law() -> tuple[list[float], float]:
    """The corrected branches' law |c_b|^2 and how far `_branch_ops()` are
    from it: the largest distance of an operator's entry from c_b I's, or of
    the |c_b|^2's sum from 1.  A residual above 1e-15, so that MAX_HOPS hops
    stay within 1e-9, or nan raises AssertionError."""
    ops = _branch_ops()
    scale = [(op[0][0] + op[1][1]) / 2 for op in ops]
    law = [abs(c) * abs(c) for c in scale]
    total = 0.0
    for weight in law:  # in order, as numpy sums four; sum() compensates from Python 3.12
        total += weight
    misses = [abs(total - 1.0)] + [abs(op[b][s] - (c if b == s else 0.0))
                                   for op, c in zip(ops, scale) for b in (0, 1) for s in (0, 1)]
    # "not within" fails on a nan, which max() may pass over
    if not all(miss <= 1e-15 for miss in misses):
        raise AssertionError("teleportation branches disagree after correction")
    return law, max(misses)


def _relay_bits(p: list[float], hops: int, rng) -> array:
    """The bits 2 * m1 + m2 of `hops` hops drawn from the branches' law p by
    two uniforms each: m1 = 1 where u1 >= p[0] + p[1], then m2 = 1 where u2
    is at or above m1's share of its pair, p[2 m1] / (p[2 m1] + p[2 m1 + 1])."""
    # a zero weight is reached only through the 1e-15 by which the checked
    # law may miss a total of 1; its m2 is then 1
    shares = [p[2 * m1] / w if (w := p[2 * m1] + p[2 * m1 + 1]) else 0.0 for m1 in (0, 1)]
    first, draw = p[0] + p[1], rng.random
    return array("B", [2 * (m1 := draw() >= first) + (draw() >= shares[m1]) for _ in range(hops)])


def relay(hops: int, rng: random.Random | None = None) -> array | None:
    """The correction bits of `hops` teleports, each through a fresh Bell
    pair, ancillas recycled.

    Without an rng every hop keeps branch (0, 0) and the bits are None; with
    one, any object with a `.random()` method, they are an array('B') of
    `hops` bytes 2 * m1 + m2, each hop's drawn by `_relay_bits` from two
    uniforms, u1 then u2.

    Every corrected branch operator is c_b I, so each hop is the identity
    channel on whatever it relays, and its bits' law |c_b|^2 is the same on
    every hop.  `relay` checks that once per call by `_branch_law`, at any
    hop count, 0 included, with or without an rng.  A negative `hops`
    raises ValueError.
    """
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    p = _branch_law()[0]
    return None if rng is None else _relay_bits(p, hops, rng)


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    Every hop is the identity channel, so the record is `exact_record`'s on
    the q = 2 star, and it accepts, and fails on, the (h, k) that the star
    model does.  With a seed, mu and then every hop's bits are drawn from
    `random.Random(seed)`, which fill the transcript with concrete bits:
    mu's bit is 1 (mu = -1) when the first uniform is >= 1/2, as p_mu = 1/2
    because <X_0> = 0 by the ground state's parity.  The relay's operators
    are checked once, by `_branch_law`, whose residual, the relay's branch
    disagreement, is the third value.
    """
    if not 1 <= hops <= MAX_HOPS:
        raise ValueError(f"hops must be in 1..{MAX_HOPS}, got {hops}")
    exact = exact_record(star_model(params), (1,))
    law, residual = _branch_law()
    if seed is None:
        return exact, LoccTranscript(hops, None, None), residual
    rng = random.Random(seed)
    mu = int(rng.random() >= 0.5)
    return exact, LoccTranscript(hops, mu, _relay_bits(law, hops, rng)), residual
