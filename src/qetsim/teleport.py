"""State-teleportation relay chains and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections, which send two
classical bits.  The corrections make all four outcome branches identical on
the kept register, so relaying is an exact identity channel.

`relay` is the package's one teleport, and the hop kernel `_hop` serves it:
on a (B, 2**(n+2)) stack of registers, each with a Bell pair appended after
its n qubits, it builds all four corrected (m1, m2) branches of every row as
one array, the relayed qubit already back at the source's site, by one
gather through a flat index table of the stack, one product with a
coefficient table and one sum; `_hop_tables` builds both tables once per
call.  `_check_hops` then checks, on every row, that each amplitude is
finite, the Bell pair and the branches' agreement.  Without an rng the
(0, 0) branch is kept and no bits are returned; with one, the drawn row's
(m1, m2) is drawn from the branches' Born probabilities, two uniforms per
hop, kept by every row, as all corrected branches are the same state, and
returned as 2 * m1 + m2 per hop.  `relay` runs every hop of a chain in one
call: each hop only extends, gathers, keeps a branch and normalizes it, and
the checks run per block of HOP_BLOCK (64) hops, so every hop is checked
before `relay` returns its rows and bits.  A hop of
the long-range run's two-row stack costs ~18 us (2 vCPU, numpy 2.4).  The
long-range run draws mu and every hop's uniforms from the standard
library's `random.Random(seed)`, so it never imports
`numpy.random`; it relays both mu branches of the protocol pass as two rows,
the drawn one (in exact mode, the first) giving the transcript's bits, and
checks the relayed energies against the closed-form exact record.
`LoccTranscript` holds only the hop count and the drawn bits; its
`serialize` alone names the nodes and lays out the lines, yielding the text
a chunk of hops at a time so that a long transcript is never held whole.
"""

from __future__ import annotations

import random
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
# Largest h/k or k/h `run_longrange_qet` accepts; see there.
MAX_RELAY_FIELD_RATIO = 1e4
# Largest hop count `run_longrange_qet` accepts: the relay keeps one byte per
# hop and the transcript is written a chunk of TRANSCRIPT_CHUNK_HOPS hops at a
# time, so `longrange --sample-transcript` peaks in-process at ~33 MB at 10^5
# hops and ~34 MB at 10^6, where it takes ~19 s (2 vCPU, numpy 2.4).
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
    gather: np.ndarray  # (2, B, 4, 2**n) flat indices into a (B, 2**(n+2)) stack
    coef: np.ndarray  # (2, B, 4, 2**n): branch = coef[0] * x + coef[1] * y


def _hop_tables(n: int, source: int, batch: int) -> _HopTables:
    """Flat index tables of teleporting qubit `source` of every n-qubit
    register of a (batch, 2**(n+2)) stack onto the second qubit b of a Bell
    pair (a, b) appended after it.

    After CNOT(source -> a) and H(source), the (m1, m2) branch of row r, X^m2
    then Z^m1 applied to b, over the register's qubits in order with b at
    the source's site, is coef[0] * x + coef[1] * y with x the stack's flat
    cells gather[0, r, 2 m1 + m2] (source 0, a = m2) and y those of
    gather[1] (source 1, a = 1 - m2), both read with b flipped where m2 = 1.
    coef is sqrt(1/2), negated where m1 = 1 and b = 1, and for y also
    negated where m1 = 1, the sign H(source) gives the source-is-1 half.
    """
    bell00 = 4 * np.arange(2**n)
    # axes (source, other register qubits, a, b)
    w = np.moveaxis(np.arange(2 ** (n + 2)).reshape((2,) * (n + 2)), source, 0)
    w = w.reshape(2, -1, 2, 2)

    def x_on_b(v):  # (other qubits, m2, b), b flipped where m2 = 1
        return np.tile(np.stack([v[:, 0], v[:, 1, ::-1]]).reshape(2, -1), (2, 1))

    scale = np.full((4, 2 ** (n - 1), 2), np.sqrt(0.5))
    scale[2:, :, 1] *= -1.0
    scale = scale.reshape(4, -1)
    signs = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    # output cell i reads the cell of (other qubits, b) that lands at i once
    # b is moved to the source's site
    home = np.moveaxis(np.arange(2**n).reshape((2,) * n), -1, source).reshape(-1)
    gather = np.stack([x_on_b(w[0]), x_on_b(w[1, :, ::-1])])[:, None, :, home]
    coef = np.stack([scale, signs * scale])[:, None, :, home]
    row_starts = 2 ** (n + 2) * np.arange(batch)[:, None, None]
    # C-ordered tables give a C-ordered gather; complex coefficients need no cast
    return _HopTables(
        bell00, bell00 + 3, np.ascontiguousarray(gather + row_starts),
        np.repeat(coef, batch, axis=1).astype(np.complex128, order="C"),
    )


def _hop(register: np.ndarray, tables: _HopTables, out: np.ndarray) -> np.ndarray:
    """The hop kernel, forward only: the four corrected branches of every row
    of a (B, 2**(n+2)) stack, unnormalized, into `out` (B, 4, 2**n), by one
    gather, one product and one sum.  Returns the joint Born probabilities
    (B, 4)."""
    terms = register.ravel()[tables.gather]
    terms *= tables.coef
    np.add(terms[0], terms[1], out=out)
    flat = out.view(np.float64)
    return np.vecdot(flat, flat)


def _check_hops(registers: np.ndarray, branches: np.ndarray, tables: _HopTables) -> None:
    """Check a stack of hops, (H, B, 2**(n+2)) registers with their (H, B, 4, .)
    branches: every amplitude must be finite, on every row the pair must be
    in (|00>+|11>)/sqrt(2) and entangled with nothing else, and every branch,
    normalized, must equal branch (0, 0).  Raises for the first hop that
    fails, naming its first failed check in that order."""
    bad_value = ~np.isfinite(registers)
    bad_amp = np.any(bad_value, axis=(-2, -1))
    on_pair = registers.take(tables.bell00, axis=-1) + registers.take(tables.bell11, axis=-1)
    bell_weight = 0.5 * np.add.reduce(np.abs(on_pair) ** 2, axis=-1)
    bad_pair = np.any(~(np.abs(bell_weight - 1.0) <= 1e-10), axis=-1)
    # a malformed pair's zero branches turn to nan here; bad_pair names that hop
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = branches / np.sqrt(np.add.reduce(np.abs(branches) ** 2, axis=-1))[..., None]
    overlap = np.add.reduce(unit[..., :1, :].conj() * unit, axis=-1)
    residual = unit - overlap[..., None] * unit[..., :1, :]
    # distances above 1e-10; written as "not within" so that a nan fails too
    bad_branches = np.any(~(np.add.reduce(np.abs(residual) ** 2, axis=-1) <= 1e-20), axis=(-2, -1))
    first = np.argmax(bad_amp | bad_pair | bad_branches)
    if bad_amp[first]:
        row, cell = np.argwhere(bad_value[first])[0]
        amp = registers[first, row, cell]
        raise ValueError(f"non-finite amplitude {amp} in register row {row}")
    if bad_pair[first]:
        raise ValueError("malformed Bell pair: reduced state is not (|00>+|11>)/sqrt(2)")
    if bad_branches[first]:
        raise AssertionError("teleportation branches disagree after correction")


def _draw(p: list[float], u1: float, u2: float) -> int:
    """2 * m1 + m2 from the branches' probabilities p: m1 by the uniform u1,
    then m2 given m1 by u2."""
    m1 = 0 if u1 < p[0] + p[1] else 1
    weight = p[2 * m1] + p[2 * m1 + 1]
    # a zero weight comes only from a malformed pair, which the check rejects
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

    Returns the relayed rows and the bits the hops kept.  Without an rng
    every row keeps branch (0, 0) and the bits are None; with one, any
    object with a `.random()` method, row `drawn`'s probabilities draw
    (m1, m2), every row keeps that branch, and the bits are a (hops,) uint8
    array of the drawn 2 * m1 + m2.  The measured-out qubits are projected
    away and the relayed content lands back at the `logical` index, so the
    stack's shape is unchanged.

    Each hop runs forward only, into block buffers of up to HOP_BLOCK hops,
    and normalizes only the branch it keeps.  When a block ends, the
    Bell-pair and branch checks run on all of its hops: a malformed hop
    raises, and no bit leaves `relay`, unless every block has passed.  Each
    hop draws two uniforms, u1 then u2.
    """
    n = _qubits(rows)
    _check_capacity(n)
    if not 0 <= logical < n:
        raise ValueError(f"logical qubit {logical} is not a site of the {n}-qubit register")
    batch, size = rows.shape
    tables = _hop_tables(n, logical, batch)
    # a hop keeps 4 * 16 bytes of register and 4 * 16 of branches per amplitude
    block = max(1, min(HOP_BLOCK, hops, _BLOCK_BYTES // (128 * batch * size)))
    extended = np.empty((block, batch, size, 4), dtype=np.complex128)
    registers = extended.reshape(block, batch, 4 * size)
    branches = np.empty((block, batch, 4, size), dtype=np.complex128)
    b = 0  # the kept branch; without an rng it stays (0, 0)
    kept = None if rng is None else np.empty(hops, dtype=np.uint8)
    hop_buffers = list(zip(extended, registers, branches))
    rows = rows[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, hops, block):
            count = min(block, hops - start)
            for j, (ext, register, out) in enumerate(hop_buffers[:count], start):
                np.multiply(rows, BELL, out=ext)
                probs = _hop(register, tables, out)
                if rng is not None:
                    b = _draw(probs[drawn].tolist(), rng.random(), rng.random())
                    kept[j] = b
                rows = out[:, b, :, None] / np.sqrt(probs[:, b, None, None])
            _check_hops(registers[:count], branches[:count], tables)
    return rows[:, :, 0], kept


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
    drawn = 0
    if rng is not None:
        drawn = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        drawn = min(drawn, len(probs) - 1)
    # the other row relays identically; only the drawn row's bits are kept
    rows, kept = relay(fed / np.sqrt(probs)[:, None], 1, hops, rng=rng, drawn=drawn)
    # Z1 reads the low bit of |s b>; X0 X1 maps index i to 3 - i
    z1 = probs @ (np.abs(rows) ** 2 @ np.array([1.0, -1.0, 1.0, -1.0]))
    xx = probs @ np.sum(rows.conj() * rows[:, ::-1], axis=-1).real
    h, k2, m = bundle.params.h, 2.0 * bundle.params.k, bundle.moments
    hz = h * z1 - h * m.zj
    hx = k2 * xx - k2 * m.xx
    local = exact.receivers[1]
    delta = max(abs(hx - local.hx), abs(hz - local.hz), abs(hx + hz - local.e_j))
    transcript = LoccTranscript(hops, None if rng is None else drawn, kept)
    return exact, transcript, float(delta)

