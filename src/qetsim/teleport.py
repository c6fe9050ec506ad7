"""State-teleportation relay chains and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections, which send two
classical bits.  The corrections make all four outcome branches identical on
the kept register, so relaying is an exact identity channel.

`relay` is the package's one teleport.  In the textbook protocol (Bennett et
al., PRL 70, 1895 (1993)) each corrected (m1, m2) branch is a 2 x 2 operator
from the source qubit to the pair's second qubit b; `_branch_ops` builds the
four from the gates, and each is c_b I with |c_b|^2 = 1/4.  So a hop leaves
every row as it was and its bits' law, the branches' Born probabilities, is
the same on every hop.  `relay` therefore checks the four operators and the
rows once per call, takes the law of the drawn row from one product of the
operators with the stack (the hop kernel `_hop`), and draws each hop's two
bits from it with two uniforms; a 1000-hop relay of two rows takes ~0.7 ms
(2 vCPU, numpy 2.4).  Without an rng the (0, 0) branch is kept and no bits
are returned.
The long-range run draws mu and every hop's uniforms from the standard
library's `random.Random(seed)`, so it never imports `numpy.random`; it
relays both mu branches of the protocol pass as two rows, the drawn one (in
exact mode, the first) giving the transcript's bits, and checks the relayed
energies against the closed-form exact record.
`LoccTranscript` holds only the hop count and the drawn bits; its
`serialize` alone names the nodes and lays out the lines, yielding the text
a chunk of hops at a time so that a long transcript is never held whole.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import IllConditionedError, MinimalModelParams, star_model
from .ops import MAX_STATEVECTOR_QUBITS
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
        for start in range(0, self.hops, TRANSCRIPT_CHUNK_HOPS):
            stop = min(start + TRANSCRIPT_CHUNK_HOPS, self.hops)
            names = ["charlie" if i == 0 else "bob" if i == self.hops else f"relay{i}"
                     for i in range(start, stop + 1)]
            if self.branches is None:
                bits = [("x", "x")] * (stop - start)
            else:
                chunk = self.branches[start:stop]
                bits = zip((chunk >> 1).tolist(), (chunk & 1).tolist())
            yield "".join(
                f"{2 * i + 1} {sender} {receiver} teleport-corrections {m1}\n"
                f"{2 * i + 2} {sender} {receiver} teleport-corrections {m2}\n"
                for i, sender, receiver, (m1, m2)
                in zip(range(start, stop), names, names[1:], bits)
            )

    def bit_count(self) -> int:
        return 1 + 2 * self.hops


BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
# Largest h/k or k/h `run_longrange_qet` accepts; see there.
MAX_RELAY_FIELD_RATIO = 1e4
# Largest hop count `run_longrange_qet` accepts.  A hop costs one `_draw` and
# one byte, so the transcript, not time, bounds it: `longrange
# --sample-transcript` at 10^6 hops writes a 108 MB transcript, a chunk of
# TRANSCRIPT_CHUNK_HOPS hops at a time, in ~1.6-1.9 s at a 33.4 MB peak
# (in-process, 2 vCPU, numpy 2.4).
MAX_HOPS = 10**6
TRANSCRIPT_CHUNK_HOPS = 4096


def _qubits(rows: np.ndarray) -> int:
    n = rows.shape[-1].bit_length() - 1
    if rows.ndim != 2 or rows.shape[-1] != 2**n or not len(rows):
        raise ValueError(f"expected a (B, 2**n) stack of registers, got {rows.shape}")
    # a row's four branches hold as many amplitudes as n + 2 qubits
    if n + 2 > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"register would exceed {MAX_STATEVECTOR_QUBITS} qubits")
    return n


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


def _hop(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The hop kernel: the Born probabilities (B, 4) of the four corrected
    branches of every row of a stack viewed as (B, 1, 2**s, 2, 2**(n-1-s)),
    s the source's site, by one product with the (4, 1, 2, 2) `ops`."""
    branches = np.matmul(ops, rows).reshape(len(rows), 4, -1).view(np.float64)
    return np.vecdot(branches, branches)


def _draw(p: list[float], u1: float, u2: float) -> int:
    """2 * m1 + m2 from the branches' probabilities p: m1 by the uniform u1,
    then m2 given m1 by u2."""
    m1 = 0 if u1 < p[0] + p[1] else 1
    weight = p[2 * m1] + p[2 * m1 + 1]
    # a zero weight comes only from an unnormalized row, which the check rejects
    m2 = 0 if weight and u2 < p[2 * m1] / weight else 1
    return 2 * m1 + m2


def relay(
    rows: np.ndarray,
    logical: int,
    hops: int,
    rng: random.Random | np.random.Generator | None = None,
    drawn: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """`hops` teleports of qubit `logical` of every row of a (B, 2**n) stack,
    each through a fresh Bell pair, ancillas recycled.

    Returns the relayed rows, real if `rows` is, and the bits the hops kept.
    Without an rng every row keeps branch (0, 0) and the bits are None; with
    one, any object with a `.random()` method, row `drawn`'s probabilities
    draw (m1, m2), every row keeps that branch, and the bits are a (hops,)
    uint8 array of the drawn 2 * m1 + m2, two uniforms per hop, u1 then u2.

    Every corrected branch operator is c_b I, so each hop is the identity
    channel: it leaves the rows, and with them the next hop's law, as they
    were.  `relay` checks that once per call, at any hop count, 0 included:
    each of `_branch_ops()` must be c_b I within 1e-15, with the |c_b|^2
    summing to 1 within 1e-15, so that MAX_HOPS hops stay within 1e-9;
    every amplitude of `rows` must be finite; and each row's four
    probabilities, from one `_hop`, must sum to 1 within 1e-10.  The rows
    then come back cast to the result dtype, and every hop's bits are drawn
    from row `drawn`'s one law.  A negative `hops` or a `drawn` outside the
    stack raises ValueError.
    """
    n = _qubits(rows)
    batch, size = rows.shape
    if not 0 <= logical < n:
        raise ValueError(f"logical qubit {logical} is not a site of the {n}-qubit register")
    if hops < 0:
        raise ValueError(f"hops must be non-negative, got {hops}")
    if not 0 <= drawn < batch:
        raise ValueError(f"drawn row {drawn} is not a row of the {batch}-row stack")
    ops = _branch_ops()
    scale = np.trace(ops, axis1=1, axis2=2) / 2
    # written as "not within" so that a nan fails too
    if not (np.max(np.abs(ops - scale[:, None, None] * np.eye(2))) <= 1e-15
            and abs(np.sum(np.abs(scale) ** 2) - 1.0) <= 1e-15):
        raise AssertionError("teleportation branches disagree after correction")
    bad_value = np.argwhere(~np.isfinite(rows))
    if len(bad_value):
        row, cell = bad_value[0]
        raise ValueError(f"non-finite amplitude {rows[row, cell]} in register row {row}")
    dtype = np.result_type(rows, np.float64)
    view = (batch, 1, 2**logical, 2, 2 ** (n - 1 - logical))
    out = rows.astype(dtype)
    probs = _hop(out.reshape(view), ops.astype(dtype)[:, None])
    bad_norm = ~(np.abs(np.sum(probs, axis=-1) - 1.0) <= 1e-10)
    if bad_norm.any():
        row = np.argmax(bad_norm)
        raise ValueError(f"register row {row} is not normalized: its branch probabilities "
                         f"sum to {np.sum(probs[row]):.6g}")
    if rng is None:
        return out, None
    p = probs[drawn].tolist()
    kept = np.fromiter((_draw(p, rng.random(), rng.random()) for _ in range(hops)),
                       dtype=np.uint8, count=hops)
    return out, kept


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The measurement and feedback are `run_protocol`'s pass, on both sites of
    the q = 2 star, so its one spectator row holds the mu branches; they are
    then relayed as one stack of two normalized rows by one `relay` call.
    The record is `exact_record`'s.  With a seed, mu and then every hop's
    bits are drawn from `random.Random(seed)`, and the drawn branch fills
    the transcript with concrete bits.  The third value is the largest
    difference of the relayed HX1, HZ1 and E1 from the record's closed
    forms (the relay is an identity channel, so it checks relay and pass
    alike).

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

    rng = None if seed is None else random.Random(seed)
    drawn = 0 if rng is None else int(rng.random() >= probs[0])
    # the other row relays identically; only the drawn row's bits are kept
    rows, kept = relay(fed / np.sqrt(probs)[:, None], 1, hops, rng=rng, drawn=drawn)
    # Z1 reads the low bit of |s b>; X0 X1 maps index i to 3 - i
    z1 = probs @ (rows**2 @ np.array([1.0, -1.0, 1.0, -1.0]))
    xx = probs @ np.sum(rows * rows[:, ::-1], axis=-1)
    h, k2, m = bundle.params.h, 2.0 * bundle.params.k, bundle.moments
    hz = h * z1 - h * m.zj
    hx = k2 * xx - k2 * m.xx
    local = exact.receivers[1]
    delta = max(abs(hx - local.hx), abs(hz - local.hz), abs(hx + hz - local.e_j))
    transcript = LoccTranscript(hops, None if rng is None else drawn, kept)
    return exact, transcript, float(delta)

