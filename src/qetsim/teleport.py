"""Single-qubit state teleportation, relay chains, and the long-range run.

Teleportation moves the source qubit's logical content onto the second half
of a shared Bell pair using an entangling basis change, two projective
measurements and outcome-conditioned Pauli corrections; every event logs its
two classical bits in a LOCC transcript, one message per measured bit.  Because the
corrections make all four outcome branches identical on the kept register,
relaying is an exact identity channel, so a relayed energy-teleportation run
reproduces the local one field for field.

In exact mode every measurement branch is enumerated and checked to agree,
and branch-dependent transcript payloads are recorded as ``x`` placeholders;
in shot mode (an rng is supplied) outcomes are Born-sampled and payloads are
concrete bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import MinimalModelParams, feedback_angle, star_model
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
from .protocol import QetRecord, alice_measure, apply_feedback, receiver_energy


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


def _sample_bit(
    state: StateVector, site: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    p0, s0 = _collapse_bit(state, site, 0)
    if rng.random() < p0:
        return 0, s0
    return 1, _collapse_bit(state, site, 1)[1]


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
) -> StateVector:
    """Teleport `source` onto `pair[1]` via a Bell pair held on `pair`.

    Returns the post-correction register: the logical content sits on
    pair[1] while source and pair[0] are left in measured computational
    states.  Without an rng all four outcomes are enumerated, verified to
    agree on the kept register, and the (0,0) representative is returned.
    """
    a, b = pair
    if len({source, a, b}) != 3:
        raise ValueError("source and pair qubits must be distinct")
    _bell_pair_check(state, pair)
    work = apply_cnot(state, source, a)
    work = apply_gate_1q(work, source, HADAMARD)

    if rng is not None:
        m1, work = _sample_bit(work, source, rng)
        m2, work = _sample_bit(work, a, rng)
        out = _correct(work, b, m1, m2)
        # one classical message per measured bit
        transcript.record(sender_name, receiver_name, "teleport-corrections", str(m1))
        transcript.record(sender_name, receiver_name, "teleport-corrections", str(m2))
        return out

    results = {}
    for m1 in (0, 1):
        p1, s1 = _collapse_bit(work, source, m1)
        for m2 in (0, 1):
            p2, s2 = _collapse_bit(s1, a, m2)
            results[(m1, m2)] = (p1 * p2, _correct(s2, b, m1, m2))
    reference = drop_qubits(results[(0, 0)][1], {source: 0, a: 0})
    for (m1, m2), (_prob, st) in results.items():
        reduced = drop_qubits(st, {source: m1, a: m2})
        if pure_trace_distance(reference, reduced) > 1e-10:
            raise AssertionError("teleportation branches disagree after correction")
    transcript.record(sender_name, receiver_name, "teleport-corrections", "x")
    transcript.record(sender_name, receiver_name, "teleport-corrections", "x")
    return results[(0, 0)][1]


def relay_hop(
    state: StateVector,
    logical: int,
    transcript: LoccTranscript,
    rng: np.random.Generator | None = None,
    sender_name: str = "charlie",
    receiver_name: str = "bob",
) -> StateVector:
    """One teleport of `logical` through a fresh Bell pair, ancillas recycled.

    The measured-out qubits are projected away and the relayed content is
    moved back to the `logical` index, so the register shape is unchanged.
    """
    n = state.n_qubits
    extended = extend_with_bell(state)
    moved = teleport_qubit(
        extended, logical, (n, n + 1), transcript, rng=rng,
        sender_name=sender_name, receiver_name=receiver_name,
    )
    if rng is None:
        cleaned = drop_qubits(moved, {logical: 0, n: 0})
    else:
        cleaned = _drop_measured(moved, (logical, n))
    # the relayed content is the last qubit now; move it home
    t = cleaned.amplitudes.reshape((2,) * cleaned.n_qubits)
    t = np.moveaxis(t, cleaned.n_qubits - 1, logical)
    return StateVector(cleaned.n_qubits, t.reshape(-1))


def _drop_measured(state: StateVector, sites: tuple[int, int]) -> StateVector:
    """Drop measured qubits whose (definite) values are found from marginals."""
    t = state.amplitudes.reshape((2,) * state.n_qubits)
    bits = {}
    for s in sites:
        marg = np.moveaxis(t, s, 0).reshape(2, -1)
        w0 = float(np.vdot(marg[0], marg[0]).real)
        bits[s] = 0 if w0 > 0.5 else 1
    return drop_qubits(state, bits)


def run_longrange_qet(
    params: MinimalModelParams, hops: int, seed: int | None = None
) -> tuple[QetRecord, LoccTranscript]:
    """Ground -> X0 measurement -> mu broadcast -> conditional rotation at the
    relay -> `hops` teleports of the receiver qubit -> receiver bookkeeping.

    The record equals run_minimal_qet's field for field (the relay is an
    identity channel).  With a seed, one sampled trajectory additionally
    fills the transcript with concrete bits; the record itself stays exact.
    """
    if hops < 1:
        raise ValueError("hops must be at least 1")
    bundle, ground = star_model(params)
    hop_names = ["charlie"] + [f"relay{i}" for i in range(1, hops)] + ["bob"]

    ensemble, e0 = alice_measure(bundle, ground)
    angle = feedback_angle(bundle, ground, 1)
    ensemble = apply_feedback(ensemble, 1, angle)

    # exact relay of both mu branches (scratch transcripts: the events are
    # identical across branches and logged once below)
    branches = []
    for br in ensemble.branches:
        state = br.state
        for i in range(hops):
            state = relay_hop(state, 1, LoccTranscript())
        branches.append(Branch(br.probability, state, br.label))
    relayed = Ensemble(tuple(branches))

    transcript = LoccTranscript()
    if seed is None:
        transcript.record("alice", "all", "mu-broadcast", "x")
        for i in range(hops):
            for _ in range(2):
                transcript.record(
                    hop_names[i], hop_names[i + 1], "teleport-corrections", "x"
                )
    else:
        rng = np.random.default_rng(seed)
        mu, state = _sample_branch(ensemble, rng)
        transcript.record("alice", "all", "mu-broadcast", str((1 - mu) // 2))
        for i in range(hops):
            state = relay_hop(
                state, 1, transcript, rng=rng,
                sender_name=hop_names[i], receiver_name=hop_names[i + 1],
            )

    record = QetRecord(
        model=params,
        e0=e0,
        theta={1: angle},
        receivers={1: receiver_energy(relayed, bundle, 1)},
        method="exact",
    )
    return record, transcript


def _sample_branch(
    ensemble: Ensemble, rng: np.random.Generator
) -> tuple[int, StateVector]:
    u = rng.random()
    acc = 0.0
    for b in ensemble.branches:
        acc += b.probability
        if u < acc:
            return b.label, b.state
    last = ensemble.branches[-1]
    return last.label, last.state


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
