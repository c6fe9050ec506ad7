"""State-teleportation relay chains and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections; every event logs its
two classical bits in a LOCC transcript, one message per measured bit.  The
corrections make all four outcome branches identical on the kept register,
so relaying is an exact identity channel.

`relay` is the package's one teleport, and the hop kernel `_hop` serves it:
on a (B, 2**(n+2)) stack of registers, each with a Bell pair appended after
its n qubits, it builds all four corrected (m1, m2) branches of every row as
one array, by two gathers through flat index tables that `_hop_tables`
builds once per call.  `_check_hops` then checks, on every row, the Bell
pair and the branches' agreement.  Without an rng the (0, 0) branch is kept
and its payloads are logged as ``x`` placeholders; with one, the drawn
row's (m1, m2) is drawn from the branches' Born probabilities and logged as
concrete bits.  `relay` runs every hop of a chain in one call: each hop
only extends, gathers, normalizes and keeps a branch, and the checks run
per block of HOP_BLOCK (64) hops, before the block's bits are logged, so
every hop is checked before `relay` returns.  A hop of the long-range run's
two-row stack costs ~30 us (2 vCPU, numpy 2.4).  The long-range run relays
both mu branches of the protocol pass as two rows, the drawn one (in exact
mode, the first) writing the transcript, and checks the relayed energies
against the closed-form exact record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import IllConditionedError, MinimalModelParams, star_model
from .ops import MAX_STATEVECTOR_QUBITS
from .protocol import QetRecord, exact_record, run_protocol


class LoccMessage(NamedTuple):
    seq: int
    sender: str
    receiver: str
    purpose: str  # "mu-broadcast" | "teleport-corrections"
    bits: str

    def line(self) -> str:
        return f"{self.seq} {self.sender} {self.receiver} {self.purpose} {self.bits}"


@dataclass
class LoccTranscript:
    messages: list[LoccMessage] = field(default_factory=list)

    def record(self, sender: str, receiver: str, purpose: str, bits: str) -> None:
        self.messages.append(
            LoccMessage(len(self.messages), sender, receiver, purpose, bits)
        )

    def serialize(self) -> str:
        return "\n".join(m.line() for m in self.messages) + (
            "\n" if self.messages else ""
        )

    def bit_count(self) -> int:
        return sum(len(m.bits) for m in self.messages)


BELL = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
# H(source) adds the source-is-1 half to branches m1 = 0 and subtracts it from m1 = 1
_H_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
# Largest h/k or k/h `run_longrange_qet` accepts; see there.
MAX_RELAY_FIELD_RATIO = 1e4
# Largest hop count `run_longrange_qet` accepts: the transcript keeps
# ~0.8 KB per hop (10^5 hops peak at ~115 MB), so 10^6 hops would take ~0.8 GB.
MAX_HOPS = 10**6
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
    transcript: LoccTranscript,
    rng: np.random.Generator | None = None,
    drawn: int = 0,
) -> np.ndarray:
    """`hops` teleports of qubit `logical` of every row of a (B, 2**n) stack,
    each through a fresh Bell pair, ancillas recycled.

    Hop i goes from charlie (i = 0) or relay i to relay i + 1 (bob after the
    last hop) and logs its two bits: ``x x`` without an rng, where every row
    keeps branch (0, 0); with one, row `drawn` draws its (m1, m2) and every
    other row keeps (0, 0).  The measured-out qubits are projected away and
    the relayed content is moved back to the `logical` index, so the stack's
    shape is unchanged.

    Each hop runs forward only, into block buffers of up to HOP_BLOCK hops.
    When a block ends, the Bell-pair and branch checks run on all of its
    hops, and only then are its bits logged: a malformed hop raises before
    `relay` returns and before any bit of its block reaches the transcript.
    The uniforms are drawn once per block, two per hop, which is the stream
    of two draws per hop.
    """
    n = _qubits(rows)
    _check_capacity(n)
    if not 0 <= logical < n:
        raise ValueError(f"logical qubit {logical} is not a site of the {n}-qubit register")
    names = ["charlie"] + [f"relay{i}" for i in range(1, hops)] + ["bob"]
    tables = _hop_tables(n, logical)
    batch, size = rows.shape
    # a hop keeps 4 * 16 bytes of register and 4 * 16 of branches per amplitude
    block = max(1, min(HOP_BLOCK, hops, _BLOCK_BYTES // (128 * batch * size)))
    extended = np.empty((block, batch, size, 4), dtype=np.complex128)
    registers = extended.reshape(block, batch, 4 * size)
    branches = np.empty((block, batch, 4, size), dtype=np.complex128)
    keep = np.zeros(batch, dtype=np.intp)
    every_row = np.arange(batch)
    bits = ["x"] * (2 * block)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, hops, block):
            count = min(block, hops - start)
            draws = None if rng is None else rng.random((count, 2)).tolist()
            for j in range(count):
                np.multiply(rows[:, :, None], BELL, out=extended[j])
                probs = _hop(registers[j], tables, branches[j])
                if draws is not None:
                    m1, m2 = _draw(probs[drawn].tolist(), *draws[j])
                    keep[drawn] = 2 * m1 + m2
                    bits[2 * j:2 * j + 2] = str(m1), str(m2)
                rows = branches[j][every_row, keep].take(tables.home, axis=-1)
            _check_hops(registers[:count], branches[:count], tables)
            for j in range(2 * count):
                hop = start + j // 2
                transcript.record(names[hop], names[hop + 1], "teleport-corrections", bits[j])
    return rows


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The measurement and feedback are `run_protocol`'s pass, on both sites of
    the q = 2 star, so its one spectator row holds the mu branches; they are
    then relayed as one stack of two normalized rows by one `relay` call.
    The record is run_minimal_qet's.  With a seed, mu and every hop's bits
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
    transcript = LoccTranscript()
    transcript.record("alice", "all", "mu-broadcast", "x" if rng is None else str(drawn))

    # the other row relays identically; only the drawn row's events are logged
    rows = relay(fed / np.sqrt(probs)[:, None], 1, hops, transcript, rng=rng, drawn=drawn)
    # Z1 reads the low bit of |s b>; X0 X1 maps index i to 3 - i
    z1 = probs @ (np.abs(rows) ** 2 @ np.array([1.0, -1.0, 1.0, -1.0]))
    xx = probs @ np.sum(rows.conj() * rows[:, ::-1], axis=-1).real
    hz = bundle.params.h * z1 + bundle.locals["Z1"].offset
    hx = 2.0 * bundle.params.k * xx + bundle.locals["X1"].offset
    local = exact.receivers[1]
    delta = max(abs(hx - local.hx), abs(hz - local.hz), abs(hx + hz - local.e_j))
    return exact, transcript, float(delta)


def relay_identity_check(hops: int, panel_size: int = 100, seed: int = 7) -> float:
    """Max trace distance after `hops` relays over a random single-qubit panel
    plus the six axis states, relayed as one stack; exact corrections make
    this machine-zero."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    rng = np.random.default_rng(seed)
    panel = []
    for _ in range(panel_size):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        panel.append(amps / np.linalg.norm(amps))
    s = 1 / np.sqrt(2)
    panel += [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    original = np.array(panel, dtype=np.complex128)

    rows = relay(original, 0, hops, LoccTranscript())
    # pure-state trace distance sqrt(1 - |<a|b>|^2), row by row, without cancellation
    overlap = np.sum(original.conj() * rows, axis=-1)
    return float(np.max(np.linalg.norm(rows - overlap[:, None] * original, axis=-1)))
