"""Single-qubit state teleportation, relay chains, and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections; every event logs its
two classical bits in a LOCC transcript, one message per measured bit.  The
corrections make all four outcome branches identical on the kept register,
so relaying is an exact identity channel.

One stacked hop kernel (`_teleport_rows`) serves every teleport: it takes a
(B, 2**n) stack of registers, checks the Bell pair on every row, and builds
all four corrected (m1, m2) branches of every row as one array, which must
agree.  Without an rng the (0, 0) branch is kept and its payloads are logged
as ``x`` placeholders; with one, the drawn row's (m1, m2) is drawn from the
branches' Born probabilities and logged as concrete bits.  A relay step is
one `relay_hop` of the whole stack: the long-range run relays both mu
branches of the protocol pass as two rows, the drawn one (in exact mode,
the first) writing the transcript, and checks the relayed energies against
the closed-form exact record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import IllConditionedError, MinimalModelParams, star_model
from .ops import MAX_STATEVECTOR_QUBITS, StateVector
from .protocol import QetRecord, exact_record, run_protocol


@dataclass(frozen=True)
class LoccMessage:
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
_H_SIGNS = np.array([1.0, -1.0])[:, None, None]  # rows m1 = 0, 1 of H(source)
# Largest h/k or k/h `run_longrange_qet` accepts; see there.
MAX_RELAY_FIELD_RATIO = 1e4


def _qubits(rows: np.ndarray) -> int:
    n = rows.shape[-1].bit_length() - 1
    if rows.ndim != 2 or rows.shape[-1] != 2**n:
        raise ValueError(f"expected a (B, 2**n) stack of registers, got {rows.shape}")
    return n


def _with_bell(rows: np.ndarray) -> np.ndarray:
    """Append a (|00> + |11>)/sqrt(2) pair to every row, as the last two qubits."""
    if _qubits(rows) + 2 > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"register would exceed {MAX_STATEVECTOR_QUBITS} qubits")
    return (rows[:, :, None] * BELL).reshape(len(rows), -1)


def extend_with_bell(state: StateVector) -> StateVector:
    """Append two fresh ancillas prepared as (|00> + |11>)/sqrt(2)."""
    return StateVector(state.n_qubits + 2, _with_bell(state.amplitudes[None])[0])


def _to_front(t: np.ndarray, *sites: int) -> np.ndarray:
    """Move the axes of `sites` of a (B, 2, ..., 2) stack to just after the
    row axis, keeping the other qubits in register order."""
    rest = [i for i in range(1, t.ndim) if i - 1 not in sites]
    return t.transpose([0] + [s + 1 for s in sites] + rest)


def _teleport_rows(
    rows: np.ndarray, source: int, pair: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The hop kernel: teleport `source` onto `pair[1]` in every row of a
    (B, 2**n) stack.

    On every row the pair must be in (|00>+|11>)/sqrt(2) and entangled with
    nothing else.  After CNOT(source -> pair[0]) and H(source), the (m1, m2)
    branch, X^m2 then Z^m1 applied to pair[1], is row [:, 2 m1 + m2] of a
    (B, 4, 2**(n-2)) array over the other qubits in register order.  Returns
    the joint Born probabilities (B, 4) and the normalized branches, each of
    which must equal branch (0, 0).
    """
    n = _qubits(rows)
    a, b = pair
    if len({source, a, b}) != 3 or not all(0 <= s < n for s in (source, a, b)):
        raise ValueError("source and pair qubits must be distinct sites of the register")
    batch = len(rows)
    t = rows.reshape((batch,) + (2,) * n)
    on_pair = _to_front(t, a, b).reshape(batch, 4, -1)
    bell_weight = 0.5 * np.sum(np.abs(on_pair[:, 0] + on_pair[:, 3]) ** 2, axis=-1)
    if np.max(np.abs(bell_weight - 1.0)) > 1e-10:
        raise ValueError("malformed Bell pair: reduced state is not (|00>+|11>)/sqrt(2)")

    w = _to_front(t, source, a).reshape(batch, 2, 2, -1)
    # CNOT(source -> a) flips a where source is 1, then H(source)
    w = (w[:, :1] + _H_SIGNS * w[:, 1:, ::-1]) * np.sqrt(0.5)
    # axes (row, m1, m2, qubits before b, b, qubits after b)
    v = w.reshape(batch, 2, 2, 2 ** (b - (source < b) - (a < b)), 2, -1)
    v[:, :, 1] = v[:, :, 1, :, ::-1].copy()  # X on b where m2 = 1
    v[:, 1, :, :, 1] *= -1.0  # then Z on b where m1 = 1
    branches = v.reshape(batch, 4, -1)
    probs = np.sum(np.abs(branches) ** 2, axis=-1)
    branches = branches / np.sqrt(probs)[..., None]
    overlap = np.sum(branches[:, :1].conj() * branches, axis=-1)
    residual = branches - overlap[..., None] * branches[:, :1]
    if np.max(np.sum(np.abs(residual) ** 2, axis=-1)) > 1e-20:  # distances above 1e-10
        raise AssertionError("teleportation branches disagree after correction")
    return probs, branches


def _keep(
    probs: np.ndarray,
    branches: np.ndarray,
    transcript: LoccTranscript,
    rng: np.random.Generator | None,
    drawn: int,
    sender_name: str,
    receiver_name: str,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Each row's kept branch: row `drawn` draws m1, then m2 given m1, from
    its probabilities when there is an rng, every other row keeps (0, 0).
    The bits are logged one message per bit (``x`` without an rng)."""
    keep = np.zeros(len(branches), dtype=np.int64)
    if rng is None:
        bits, payloads = (0, 0), ("x", "x")
    else:
        p = probs[drawn]
        m1 = 0 if rng.random() < p[0] + p[1] else 1
        m2 = 0 if rng.random() < p[2 * m1] / (p[2 * m1] + p[2 * m1 + 1]) else 1
        keep[drawn] = 2 * m1 + m2
        bits, payloads = (m1, m2), (str(m1), str(m2))
    for payload in payloads:
        transcript.record(sender_name, receiver_name, "teleport-corrections", payload)
    return branches[np.arange(len(branches)), keep], bits


def teleport_qubit(
    state: StateVector,
    source: int,
    pair: tuple[int, int],
    transcript: LoccTranscript,
    rng: np.random.Generator | None = None,
    sender_name: str = "charlie",
    receiver_name: str = "bob",
) -> tuple[StateVector, tuple[int, int]]:
    """Teleport `source` onto `pair[1]` via a Bell pair held on `pair`: the
    hop kernel on a one-row stack.  Returns the kept post-correction
    register, whose logical content sits on pair[1] while source and pair[0]
    hold m1 and m2, and the bits (m1, m2).
    """
    n = state.n_qubits
    kept, (m1, m2) = _keep(
        *_teleport_rows(state.amplitudes[None], source, pair),
        transcript, rng, 0, sender_name, receiver_name,
    )
    full = np.zeros((2, 2) + (2,) * (n - 2), dtype=np.complex128)
    full[m1, m2] = kept[0].reshape((2,) * (n - 2))
    return StateVector(n, np.moveaxis(full, (0, 1), (source, pair[0])).reshape(-1)), (m1, m2)


def relay_hop(
    rows: np.ndarray,
    logical: int,
    transcript: LoccTranscript,
    rng: np.random.Generator | None = None,
    sender_name: str = "charlie",
    receiver_name: str = "bob",
    drawn: int = 0,
) -> np.ndarray:
    """One teleport of `logical` through a fresh Bell pair, ancillas recycled.

    `rows` is a (B, 2**n) stack of registers, relayed as one batch by the
    hop kernel; with an rng, row `drawn` draws the logged bits.  The
    measured-out qubits are projected away at their bits and the relayed
    content is moved back to the `logical` index, so the stack's shape is
    unchanged.
    """
    n = _qubits(rows)
    kept, _ = _keep(
        *_teleport_rows(_with_bell(rows), logical, (n, n + 1)),
        transcript, rng, drawn, sender_name, receiver_name,
    )
    # the relayed content is the last qubit now; move it home
    home = [*range(logical + 1), n, *range(logical + 1, n)]
    return kept.reshape((len(kept),) + (2,) * n).transpose(home).reshape(len(kept), -1)


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The measurement and feedback are `run_protocol`'s pass, on both sites of
    the q = 2 star, so its one spectator row holds the mu branches; they are
    then relayed as one stack of two normalized rows, one `relay_hop` per
    hop.  The record is run_minimal_qet's.  With a seed, mu and every hop's
    bits are drawn, and the drawn branch fills the transcript with concrete
    bits.  The third value is the largest difference of the relayed HX1,
    HZ1 and E1 from the record's closed forms (the relay is an identity
    channel, so it checks relay and pass alike).

    The pass loses those energies as the fields part, at any hop count: with
    the smaller field 1, by 1.8e-12 at h/k = 1e4 and 1.5e-8 at 1e8, and by
    4.3e-12 at k/h = 1e4 and 8.8e-10 at 1e6.  So h/k or k/h above
    MAX_RELAY_FIELD_RATIO raises IllConditionedError before any pass.
    """
    if hops < 1:
        raise ValueError("hops must be at least 1")
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
    hop_names = ["charlie"] + [f"relay{i}" for i in range(1, hops)] + ["bob"]

    rng = None if seed is None else np.random.default_rng(seed)
    drawn = 0
    if rng is not None:
        drawn = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        drawn = min(drawn, len(probs) - 1)
    transcript = LoccTranscript()
    transcript.record("alice", "all", "mu-broadcast", "x" if rng is None else str(drawn))

    # the other row relays identically; only the drawn row's events are logged
    rows = fed / np.sqrt(probs)[:, None]
    for i in range(hops):
        rows = relay_hop(
            rows, 1, transcript, rng=rng,
            sender_name=hop_names[i], receiver_name=hop_names[i + 1], drawn=drawn,
        )
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

    rows = original
    for _ in range(hops):
        rows = relay_hop(rows, 0, LoccTranscript())
    # pure-state trace distance sqrt(1 - |<a|b>|^2), row by row, without cancellation
    overlap = np.sum(original.conj() * rows, axis=-1)
    return float(np.max(np.linalg.norm(rows - overlap[:, None] * original, axis=-1)))
