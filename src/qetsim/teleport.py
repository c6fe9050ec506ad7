"""State-teleportation relay chains and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections, which send two
classical bits.  The corrections make all four outcome branches identical on
the kept register, so relaying is an exact identity channel.

`relay` is the package's one teleport, and the hop kernel `_hop` serves it:
on a (B, 2**(n+2)) stack of registers, each with a Bell pair appended after
its n qubits, it builds all four corrected (m1, m2) branches of every row as
one array, by two gathers through flat index tables that `_hop_tables`
builds once per call.  `_check_hops` then checks, on every row, the Bell
pair and the branches' agreement.  Without an rng the (0, 0) branch is kept
and no bits are returned; with one, the drawn row's (m1, m2) is drawn from
the branches' Born probabilities and returned as 2 * m1 + m2 per hop.
`relay` runs every hop of a chain in one call: each hop only extends,
gathers, normalizes and keeps a branch, and the checks run per block of
HOP_BLOCK (64) hops, so every hop is checked before `relay` returns its
rows and bits.  A hop of the long-range run's two-row stack costs ~30 us
(2 vCPU, numpy 2.4).  The long-range run relays both mu branches of the
protocol pass as two rows, the drawn one (in exact mode, the first) giving
the transcript's bits, and checks the relayed energies against the
closed-form exact record.  `LoccTranscript` holds only the hop count and the
drawn bits; its `serialize` alone names the nodes and lays out the lines,
yielding the text a chunk of hops at a time so that a long transcript is
never held whole.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

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


BELL = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
# H(source) adds the source-is-1 half to branches m1 = 0 and subtracts it from m1 = 1
_H_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
# Largest h/k or k/h `run_longrange_qet` accepts; see there.
MAX_RELAY_FIELD_RATIO = 1e4
# Largest hop count `run_longrange_qet` accepts: the relay keeps one byte per
# hop and the transcript is written a chunk of TRANSCRIPT_CHUNK_HOPS hops at a
# time, so `longrange --sample-transcript` peaks in-process at ~39 MB at 10^5
# hops and ~40 MB at 10^6, where it takes ~14 s (2 vCPU, numpy 2.4).
MAX_HOPS = 10**6
TRANSCRIPT_CHUNK_HOPS = 4096
# `relay` checks its hops in blocks of this many, kept in buffers of at most
# _BLOCK_BYTES so that a large register's block stays small.
HOP_BLOCK = 64
_BLOCK_BYTES = 1 << 20


def _qubits(rows: np.ndarray) -> int:
    n = rows.shape[-1].bit_length() - 1
    if rows.ndim != 2 or rows.shape[-1] != 2**n or not len(rows):
        raise ValueError(f"expected a (B, 2**n) stack of registers, got {rows.shape}")
    return n


def _check_capacity(n: int) -> None:
    if n + 2 > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"register would exceed {MAX_STATEVECTOR_QUBITS} qubits")


class _HopTables(NamedTuple):
    bell00: np.ndarray  # (2**n,) cells of the pair in 00, register qubits in order
    bell11: np.ndarray
    gather0: np.ndarray  # (4, 2**n): branch (m1, m2) = (x + sign * y) * scale
    gather1: np.ndarray
    scale: np.ndarray
    home: np.ndarray  # kept branch -> register with pair[1] at the source's site


def _hop_tables(n: int, source: int) -> _HopTables:
    """Flat index tables of teleporting qubit `source` of an n-qubit
    register onto the second qubit b of a Bell pair (a, b) appended after it.

    After CNOT(source -> a) and H(source), the (m1, m2) branch, X^m2 then
    Z^m1 applied to b, over the other register qubits in order and then b,
    is (x + sign[m1] * y) * scale with x = register[gather0[2 m1 + m2]]
    (source 0, a = m2) and y = register[gather1[2 m1 + m2]] (source 1,
    a = 1 - m2), both read with b flipped where m2 = 1; scale is sqrt(1/2),
    negated where m1 = 1 and b = 1.
    """
    bell00 = 4 * np.arange(2**n)
    # axes (source, other register qubits, a, b)
    w = np.moveaxis(np.arange(2 ** (n + 2)).reshape((2,) * (n + 2)), source, 0)
    w = w.reshape(2, -1, 2, 2)

    def x_on_b(v):  # (other qubits, m2, b), b flipped where m2 = 1
        return np.tile(np.stack([v[:, 0], v[:, 1, ::-1]]).reshape(2, -1), (2, 1))

    scale = np.full((4, 2 ** (n - 1), 2), np.sqrt(0.5))
    scale[2:, :, 1] *= -1.0
    home = np.arange(2**n).reshape((2,) * n)
    return _HopTables(
        bell00, bell00 + 3, x_on_b(w[0]), x_on_b(w[1, :, ::-1]),
        scale.reshape(4, -1), np.moveaxis(home, -1, source).reshape(-1),
    )


def _hop(register: np.ndarray, tables: _HopTables, out: np.ndarray) -> np.ndarray:
    """The hop kernel, forward only: the four corrected branches of every row
    of a (B, 2**(n+2)) stack, normalized into `out` (B, 4, 2**n).  Returns
    the joint Born probabilities (B, 4).  Call it under an errstate that lets
    a malformed row's zero probabilities pass: `_check_hops` rejects it."""
    y = register.take(tables.gather1, axis=-1) * _H_SIGNS
    np.add(register.take(tables.gather0, axis=-1), y, out=out)
    out *= tables.scale
    probs = np.add.reduce(np.abs(out) ** 2, axis=-1)
    out /= np.sqrt(probs)[..., None]
    return probs


def _check_hops(registers: np.ndarray, branches: np.ndarray, tables: _HopTables) -> None:
    """Check a stack of hops, (H, B, 2**(n+2)) registers with their (H, B, 4, .)
    branches: on every row the pair must be in (|00>+|11>)/sqrt(2) and
    entangled with nothing else, and every branch must equal branch (0, 0).
    Raises for the first hop that fails."""
    on_pair = registers.take(tables.bell00, axis=-1) + registers.take(tables.bell11, axis=-1)
    bell_weight = 0.5 * np.add.reduce(np.abs(on_pair) ** 2, axis=-1)
    bad_pair = np.any(np.abs(bell_weight - 1.0) > 1e-10, axis=-1)
    overlap = np.add.reduce(branches[..., :1, :].conj() * branches, axis=-1)
    residual = branches - overlap[..., None] * branches[..., :1, :]
    # distances above 1e-10
    bad_branches = np.any(np.add.reduce(np.abs(residual) ** 2, axis=-1) > 1e-20, axis=(-2, -1))
    first = np.argmax(bad_pair | bad_branches)
    if bad_pair[first]:
        raise ValueError("malformed Bell pair: reduced state is not (|00>+|11>)/sqrt(2)")
    if bad_branches[first]:
        raise AssertionError("teleportation branches disagree after correction")


def _draw(p: list[float], u1: float, u2: float) -> tuple[int, int]:
    """(m1, m2) from the branches' probabilities p: m1 by the uniform u1,
    then m2 given m1 by u2."""
    m1 = 0 if u1 < p[0] + p[1] else 1
    weight = p[2 * m1] + p[2 * m1 + 1]
    # a zero weight comes only from a malformed pair, which the check rejects
    m2 = 0 if weight and u2 < p[2 * m1] / weight else 1
    return m1, m2


def relay(
    rows: np.ndarray,
    logical: int,
    hops: int,
    rng: np.random.Generator | None = None,
    drawn: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """`hops` teleports of qubit `logical` of every row of a (B, 2**n) stack,
    each through a fresh Bell pair, ancillas recycled.

    Returns the relayed rows and the bits the hops kept.  Without an rng
    every row keeps branch (0, 0) and the bits are None; with one, row
    `drawn` draws its (m1, m2) and every other row keeps (0, 0), and the
    bits are a (hops,) uint8 array of the drawn 2 * m1 + m2.  The
    measured-out qubits are projected away and the relayed content is moved
    back to the `logical` index, so the stack's shape is unchanged.

    Each hop runs forward only, into block buffers of up to HOP_BLOCK hops.
    When a block ends, the Bell-pair and branch checks run on all of its
    hops: a malformed hop raises, and no bit leaves `relay`, unless every
    block has passed.  The uniforms are drawn once per block, two per hop,
    which is the stream of two draws per hop.
    """
    n = _qubits(rows)
    _check_capacity(n)
    if not 0 <= logical < n:
        raise ValueError(f"logical qubit {logical} is not a site of the {n}-qubit register")
    tables = _hop_tables(n, logical)
    batch, size = rows.shape
    # a hop keeps 4 * 16 bytes of register and 4 * 16 of branches per amplitude
    block = max(1, min(HOP_BLOCK, hops, _BLOCK_BYTES // (128 * batch * size)))
    extended = np.empty((block, batch, size, 4), dtype=np.complex128)
    registers = extended.reshape(block, batch, 4 * size)
    branches = np.empty((block, batch, 4, size), dtype=np.complex128)
    keep = np.zeros(batch, dtype=np.intp)
    every_row = np.arange(batch)
    kept = None if rng is None else np.empty(hops, dtype=np.uint8)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, hops, block):
            count = min(block, hops - start)
            draws = None if rng is None else rng.random((count, 2)).tolist()
            for j in range(count):
                np.multiply(rows[:, :, None], BELL, out=extended[j])
                probs = _hop(registers[j], tables, branches[j])
                if draws is not None:
                    m1, m2 = _draw(probs[drawn].tolist(), *draws[j])
                    keep[drawn] = kept[start + j] = 2 * m1 + m2
                rows = branches[j][every_row, keep].take(tables.home, axis=-1)
            _check_hops(registers[:count], branches[:count], tables)
    return rows, kept


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The measurement and feedback are `run_protocol`'s pass, on both sites of
    the q = 2 star, so its one spectator row holds the mu branches; they are
    then relayed as one stack of two normalized rows by one `relay` call.
    The record is `exact_record`'s.  With a seed, mu and every hop's bits
    are drawn, and the drawn branch fills the transcript with concrete
    bits.  The third value is the largest difference of the relayed HX1,
    HZ1 and E1 from the record's closed forms (the relay is an identity
    channel, so it checks relay and pass alike).

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
    fed = run_protocol(bundle, (1,))[:, 0]
    probs = np.sum(fed**2, axis=-1)  # p_mu, mu = +1 then -1

    rng = None if seed is None else np.random.default_rng(seed)
    drawn = 0
    if rng is not None:
        drawn = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        drawn = min(drawn, len(probs) - 1)
    # the other row relays identically; only the drawn row's bits are kept
    rows, kept = relay(fed / np.sqrt(probs)[:, None], 1, hops, rng=rng, drawn=drawn)
    # Z1 reads the low bit of |s b>; X0 X1 maps index i to 3 - i
    z1 = probs @ (np.abs(rows) ** 2 @ np.array([1.0, -1.0, 1.0, -1.0]))
    xx = probs @ np.sum(rows.conj() * rows[:, ::-1], axis=-1).real
    hz = bundle.params.h * z1 + bundle.locals["Z1"].offset
    hx = 2.0 * bundle.params.k * xx + bundle.locals["X1"].offset
    local = exact.receivers[1]
    delta = max(abs(hx - local.hx), abs(hz - local.hz), abs(hx + hz - local.e_j))
    transcript = LoccTranscript(hops, None if rng is None else drawn, kept)
    return exact, transcript, float(delta)

