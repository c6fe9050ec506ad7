import numpy as np
import pytest

from oracle_utils import partial_trace, trace_distance

from qetsim.model import MinimalModelParams
from qetsim.ops import (
    MAX_STATEVECTOR_QUBITS,
    StateVector,
    fidelity,
    pure_trace_distance,
    tensor,
)
from qetsim.protocol import run_minimal_qet
from qetsim.teleport import (
    LoccTranscript,
    extend_with_bell,
    relay_hop,
    relay_identity_check,
    run_longrange_qet,
    teleport_qubit,
)

RNG = np.random.default_rng(31)


def random_qubit():
    amps = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    return StateVector(1, amps / np.linalg.norm(amps))


# --- extend_with_bell ---------------------------------------------------------

def test_extend_zero_state():
    out = extend_with_bell(StateVector.basis(1, 0))
    want = np.zeros(8)
    want[0b000] = want[0b011] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, want)
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-14)


def test_extend_keeps_original_register_reduced_state():
    state = random_qubit()
    out = extend_with_bell(state)
    rho = partial_trace(out.amplitudes, 3, (0,))
    want = np.outer(state.amplitudes, state.amplitudes.conj())
    assert trace_distance(rho, want) < 1e-12


def test_extend_capacity_guard():
    big = StateVector.basis(MAX_STATEVECTOR_QUBITS - 1, 0)
    with pytest.raises(ValueError):
        extend_with_bell(big)


# --- teleport_qubit -----------------------------------------------------------

def test_teleport_axis_and_random_states_exact():
    s = 1 / np.sqrt(2)
    panel = [
        StateVector(1, np.array(a, dtype=complex))
        for a in ([1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s])
    ] + [random_qubit() for _ in range(20)]
    for state in panel:
        extended = extend_with_bell(state)
        transcript = LoccTranscript()
        out, _ = teleport_qubit(extended, 0, (1, 2), transcript)
        content = out.amplitudes.reshape(2, 2, 2)[0, 0, :]  # measured (0,0) branch
        assert np.allclose(content, state.amplitudes, atol=1e-12)
        assert transcript.messages[0].purpose == "teleport-corrections"
        assert transcript.bit_count() == 2


def test_teleport_outcome_probabilities_quarter_exact():
    # dense Born-rule evaluation: after CNOT(0->1) and H(0) on psi (x) Bell,
    # every (m1, m2) readout pattern has probability exactly 1/4
    perm = [0b000, 0b001, 0b010, 0b011, 0b110, 0b111, 0b100, 0b101]
    cnot = np.eye(8, dtype=complex)[perm]  # flips bit 1 where bit 0 is set
    h0 = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(4))
    for state in (random_qubit(), StateVector.basis(1, 0)):
        amps = extend_with_bell(state).amplitudes
        rotated = h0 @ (cnot @ amps)
        probs = np.abs(rotated.reshape(2, 2, 2)) ** 2
        for m1 in (0, 1):
            for m2 in (0, 1):
                assert probs[m1, m2, :].sum() == pytest.approx(0.25, abs=1e-12)


def test_teleport_outcomes_uniform():
    # Born rule: each correction pattern appears with probability 1/4
    state = random_qubit()
    counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    n = 800
    rng = np.random.default_rng(5)
    for _ in range(n):
        transcript = LoccTranscript()
        out, _ = teleport_qubit(extend_with_bell(state), 0, (1, 2), transcript, rng=rng)
        pattern = transcript.messages[0].bits + transcript.messages[1].bits
        counts[pattern] += 1
        # the corrected target carries the state in every branch
        m1, m2 = (int(b) for b in pattern)
        content = out.amplitudes.reshape(2, 2, 2)[m1, m2, :]
        got = StateVector(1, content / np.linalg.norm(content))
        assert fidelity(got, state) == pytest.approx(1.0, abs=1e-10)
    sigma = np.sqrt(n * 0.25 * 0.75)
    for pattern, c in counts.items():
        assert abs(c - n / 4) < 5 * sigma, counts


def test_teleport_preserves_entanglement():
    # teleport half of an entangled pair; the 2-qubit reduced state survives
    a, b = 0.6, 0.8
    pair = StateVector(2, np.array([a, 0, 0, b], dtype=complex))
    extended = extend_with_bell(pair)  # qubits: 0,1 entangled; 2,3 Bell
    out, _ = teleport_qubit(extended, 1, (2, 3), LoccTranscript())
    rho = partial_trace(out.amplitudes, 4, (0, 3))
    want = np.outer(pair.amplitudes, pair.amplitudes.conj())
    assert trace_distance(rho, want) < 1e-12


def test_teleport_rejects_malformed_pair():
    product = tensor(random_qubit(), StateVector.basis(2, "00"))
    with pytest.raises(ValueError):
        teleport_qubit(product, 0, (1, 2), LoccTranscript())
    with pytest.raises(ValueError):
        teleport_qubit(extend_with_bell(random_qubit()), 0, (0, 2), LoccTranscript())


# --- relays -------------------------------------------------------------------

@pytest.mark.parametrize("hops", [1, 5])
def test_relay_identity_panel(hops):
    assert relay_identity_check(hops, panel_size=40) <= 1e-12


def test_relay_hop_register_shape():
    state = random_qubit()
    out = relay_hop(state, 0, LoccTranscript())
    assert out.n_qubits == 1
    assert pure_trace_distance(out, state) < 1e-12


# --- long-range runs ----------------------------------------------------------

@pytest.mark.parametrize("hops", [1, 3])
def test_longrange_equals_local(hops):
    params = MinimalModelParams(1.0, 1.0)
    relayed, transcript, delta = run_longrange_qet(params, hops)
    local = run_minimal_qet(params)
    assert delta <= 1e-10
    assert relayed.e0 == pytest.approx(local.e0, abs=1e-10)
    assert relayed.theta[1].theta == pytest.approx(local.theta[1].theta, abs=1e-12)
    for field in ("hx", "hz", "e_j", "e_b"):
        assert getattr(relayed.receivers[1], field) == pytest.approx(
            getattr(local.receivers[1], field), abs=1e-10
        )
    assert len(transcript.messages) == 1 + 2 * hops
    assert transcript.bit_count() == 1 + 2 * hops
    assert transcript.messages[0].purpose == "mu-broadcast"


def test_longrange_seeded_transcript_is_concrete_and_deterministic():
    params = MinimalModelParams(2.0, 1.0)
    _, t1, _ = run_longrange_qet(params, 2, seed=9)
    _, t2, _ = run_longrange_qet(params, 2, seed=9)
    assert t1.serialize() == t2.serialize()
    assert "x" not in t1.serialize()
    assert t1.bit_count() == 1 + 2 * 2


def test_transcript_serialization_format():
    _, transcript, _ = run_longrange_qet(MinimalModelParams(1.0, 1.0), 2)
    lines = transcript.serialize().splitlines()
    assert lines[0] == "0 alice all mu-broadcast x"
    assert lines[1].startswith("1 charlie ")
    assert all(len(line.split()) == 5 for line in lines)


def test_longrange_bad_hops():
    with pytest.raises(ValueError):
        run_longrange_qet(MinimalModelParams(1.0, 1.0), 0)
