"""Single-qubit state teleportation, relay chains, and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections; every event logs its
two classical bits in a LOCC transcript, one message per measured bit.  Because the
corrections make all four outcome branches identical on the kept register,
relaying is an exact identity channel, so a relayed energy-teleportation run
reproduces the local one field for field.

Every teleport enumerates its four measurement branches and checks that they
agree.  Without an rng the (0, 0) branch is kept and its payloads are logged
as ``x`` placeholders; with one, (m1, m2) is drawn from the enumerated Born
probabilities and logged as concrete bits.  The long-range run relays each
mu branch of the exact protocol pass once; the drawn branch (in exact mode,
the first) writes the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import MinimalModelParams, star_model
from .ops import (
    Branch,
    Ensemble,
    HADAMARD,
    MAX_STATEVECTOR_QUBITS,
    StateVector,
    apply_cnot,
    apply_gate_1q,
    apply_pauli,
    drop_qubits,
    pure_trace_distance,
    tensor,
    x_on,
    z_on,
)
from .protocol import QetRecord, receiver_energy, run_protocol


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


def extend_with_bell(state: StateVector) -> StateVector:
    """Append two fresh ancillas prepared as (|00> + |11>)/sqrt(2)."""
    if state.n_qubits + 2 > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"register would exceed {MAX_STATEVECTOR_QUBITS} qubits")
    bell = StateVector(2, np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2))
    return tensor(state, bell)


def _collapse_bit(state: StateVector, site: int, bit: int) -> tuple[float, StateVector]:
    """Probability and collapsed state of reading `bit` at `site` (Z basis)."""
    n = state.n_qubits
    t = state.amplitudes.reshape((2,) * n)
    index: list = [slice(None)] * n
    index[site] = 1 - bit
    kept = t.copy()
    kept[tuple(index)] = 0.0
    proj = kept.reshape(-1)
    p = float(np.vdot(proj, proj).real)
    if p <= 0.0:
        return 0.0, state
    return p, StateVector(n, proj / np.sqrt(p))


def _bell_pair_check(state: StateVector, pair: tuple[int, int]) -> None:
    """The pair must be in (|00>+|11>)/sqrt(2) and entangled with nothing else."""
    n = state.n_qubits
    t = np.moveaxis(state.amplitudes.reshape((2,) * n), pair, (0, 1)).reshape(4, -1)
    rho = t @ t.conj().T
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    if abs(np.vdot(bell, rho @ bell).real - 1.0) > 1e-10:
        raise ValueError("malformed Bell pair: reduced state is not (|00>+|11>)/sqrt(2)")


def _correct(state: StateVector, target: int, m1: int, m2: int) -> StateVector:
    out = state
    if m2:
        out = apply_pauli(out, x_on(out.n_qubits, target))
    if m1:
        out = apply_pauli(out, z_on(out.n_qubits, target))
    return out


def teleport_qubit(
    state: StateVector,
    source: int,
    pair: tuple[int, int],
    transcript: LoccTranscript,
    rng: np.random.Generator | None = None,
    sender_name: str = "charlie",
    receiver_name: str = "bob",
) -> tuple[StateVector, tuple[int, int]]:
    """Teleport `source` onto `pair[1]` via a Bell pair held on `pair`.

    All four outcomes (m1, m2) are enumerated and verified to agree on the
    kept register.  Without an rng the (0, 0) branch is kept; with one, m1
    and then m2 are drawn from the enumerated probabilities.  Returns the
    kept post-correction register, whose logical content sits on pair[1]
    while source and pair[0] hold m1 and m2, and the bits (m1, m2).
    """
    a, b = pair
    if len({source, a, b}) != 3:
        raise ValueError("source and pair qubits must be distinct")
    _bell_pair_check(state, pair)
    work = apply_cnot(state, source, a)
    work = apply_gate_1q(work, source, HADAMARD)

    p_m1 = {}
    results = {}  # (m1, m2) -> (P(m2 | m1), corrected state)
    for m1 in (0, 1):
        p_m1[m1], s1 = _collapse_bit(work, source, m1)
        for m2 in (0, 1):
            p2, s2 = _collapse_bit(s1, a, m2)
            results[(m1, m2)] = (p2, _correct(s2, b, m1, m2))
    reference = drop_qubits(results[(0, 0)][1], {source: 0, a: 0})
    for (m1, m2), (_p2, st) in results.items():
        reduced = drop_qubits(st, {source: m1, a: m2})
        if pure_trace_distance(reference, reduced) > 1e-10:
            raise AssertionError("teleportation branches disagree after correction")

    if rng is None:
        bits, payloads = (0, 0), ("x", "x")
    else:
        m1 = 0 if rng.random() < p_m1[0] else 1
        m2 = 0 if rng.random() < results[(m1, 0)][0] else 1
        bits, payloads = (m1, m2), (str(m1), str(m2))
    # one classical message per measured bit
    for payload in payloads:
        transcript.record(sender_name, receiver_name, "teleport-corrections", payload)
    return results[bits][1], bits


def relay_hop(
    state: StateVector,
    logical: int,
    transcript: LoccTranscript,
    rng: np.random.Generator | None = None,
    sender_name: str = "charlie",
    receiver_name: str = "bob",
) -> StateVector:
    """One teleport of `logical` through a fresh Bell pair, ancillas recycled.

    The measured-out qubits are projected away at their bits and the relayed
    content is moved back to the `logical` index, so the register shape is
    unchanged.
    """
    n = state.n_qubits
    extended = extend_with_bell(state)
    moved, (m1, m2) = teleport_qubit(
        extended, logical, (n, n + 1), transcript, rng=rng,
        sender_name=sender_name, receiver_name=receiver_name,
    )
    cleaned = drop_qubits(moved, {logical: m1, n: m2})
    # the relayed content is the last qubit now; move it home
    t = cleaned.amplitudes.reshape((2,) * cleaned.n_qubits)
    t = np.moveaxis(t, cleaned.n_qubits - 1, logical)
    return StateVector(cleaned.n_qubits, t.reshape(-1))


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript, float]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The measurement and feedback are `run_protocol`'s pass; each mu branch
    is then relayed once.  The record equals run_minimal_qet's field for
    field (the relay is an identity channel).  With a seed, mu and every
    hop's bits are drawn, and the drawn branch fills the transcript with
    concrete bits; the record itself stays exact.  The third value is the
    largest difference of the relayed HX1, HZ1 and E1 from the same pass's
    unrelayed ones.
    """
    if hops < 1:
        raise ValueError("hops must be at least 1")
    bundle, ground = star_model(params)
    exact, fed = run_protocol(bundle, ground, (1,))
    hop_names = ["charlie"] + [f"relay{i}" for i in range(1, hops)] + ["bob"]

    rng = None if seed is None else np.random.default_rng(seed)
    drawn = fed.branches[0] if rng is None else _sample_branch(fed, rng)
    transcript = LoccTranscript()
    mu_bit = "x" if rng is None else str((1 - drawn.label) // 2)
    transcript.record("alice", "all", "mu-broadcast", mu_bit)

    branches = []
    for br in fed.branches:
        # the other branches relay identically; their events are not logged
        log, branch_rng = (transcript, rng) if br is drawn else (LoccTranscript(), None)
        state = br.state
        for i in range(hops):
            state = relay_hop(
                state, 1, log, rng=branch_rng,
                sender_name=hop_names[i], receiver_name=hop_names[i + 1],
            )
        branches.append(Branch(br.probability, state, br.label))
    relayed = receiver_energy(Ensemble(tuple(branches)), bundle, 1)
    local = exact.receivers[1]
    delta = max(abs(getattr(relayed, f) - getattr(local, f)) for f in ("hx", "hz", "e_j"))
    return replace(exact, receivers={1: relayed}), transcript, delta


def _sample_branch(ensemble: Ensemble, rng: np.random.Generator) -> Branch:
    u = rng.random()
    acc = 0.0
    for b in ensemble.branches:
        acc += b.probability
        if u < acc:
            return b
    return ensemble.branches[-1]


def relay_identity_check(hops: int, panel_size: int = 100, seed: int = 7) -> float:
    """Max trace distance after `hops` relays over a random single-qubit panel
    plus the six axis states; exact corrections make this machine-zero."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    rng = np.random.default_rng(seed)
    panel = []
    for _ in range(panel_size):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        panel.append(StateVector(1, amps / np.linalg.norm(amps)))
    s = 1 / np.sqrt(2)
    for amps in ([1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]):
        panel.append(StateVector(1, np.array(amps, dtype=np.complex128)))

    worst = 0.0
    for original in panel:
        state = original
        for _ in range(hops):
            state = relay_hop(state, 0, LoccTranscript())
        worst = max(worst, pure_trace_distance(original, state))
    return worst
