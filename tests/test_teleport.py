import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import pure_trace_distance, teleport_branches

from qetsim.model import IllConditionedError, MinimalModelParams
from qetsim.ops import MAX_STATEVECTOR_QUBITS
from qetsim.protocol import run_minimal_qet
from qetsim.teleport import (
    BELL,
    HOP_BLOCK,
    MAX_RELAY_FIELD_RATIO,
    LoccTranscript,
    _check_hops,
    _hop,
    _hop_tables,
    relay,
    relay_identity_check,
    run_longrange_qet,
)

RNG = np.random.default_rng(31)


def random_amplitudes(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def random_qubit():
    return random_amplitudes(RNG, 1)


# --- one teleport ---------------------------------------------------------------

def test_teleport_axis_and_random_states_exact():
    s = 1 / np.sqrt(2)
    axis = [[1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s]]
    panel = np.array(axis + [random_qubit() for _ in range(20)], dtype=complex)
    transcript = LoccTranscript()
    out = relay(panel, 0, 1, transcript)
    assert np.max(np.abs(out - panel)) <= 1e-12
    assert [m.purpose for m in transcript.messages] == ["teleport-corrections"] * 2
    assert transcript.bit_count() == 2


def test_teleport_outcome_probabilities_quarter_exact():
    # dense Born-rule evaluation: after CNOT(0->1) and H(0) on psi (x) Bell,
    # every (m1, m2) readout pattern has probability exactly 1/4, as the
    # hop kernel's probabilities say
    perm = [0b000, 0b001, 0b010, 0b011, 0b110, 0b111, 0b100, 0b101]
    cnot = np.eye(8, dtype=complex)[perm]  # flips bit 1 where bit 0 is set
    h0 = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.eye(4))
    for state in (random_qubit(), np.array([1, 0], dtype=complex)):
        amps = np.kron(state, BELL)
        rotated = h0 @ (cnot @ amps)
        probs = np.abs(rotated.reshape(2, 2, 2)) ** 2
        for m1 in (0, 1):
            for m2 in (0, 1):
                assert probs[m1, m2, :].sum() == pytest.approx(0.25, abs=1e-12)
        kernel = _hop(amps[None], _hop_tables(1, 0), np.empty((1, 4, 2), dtype=complex))
        assert np.max(np.abs(kernel - 0.25)) <= 1e-12


def test_teleport_outcomes_uniform():
    # Born rule: over 800 sampled hops of one qubit, each correction pattern
    # appears with probability 1/4, and the qubit comes back unchanged
    state = random_qubit()
    n = 800
    transcript = LoccTranscript()
    out = relay(state[None], 0, n, transcript, rng=np.random.default_rng(5))
    bits = [m.bits for m in transcript.messages]
    patterns = [m1 + m2 for m1, m2 in zip(bits[::2], bits[1::2])]
    assert len(patterns) == n
    sigma = np.sqrt(n * 0.25 * 0.75)
    for pattern in ("00", "01", "10", "11"):
        assert abs(patterns.count(pattern) - n / 4) < 5 * sigma, pattern
    assert pure_trace_distance(state, out[0]) <= 1e-10


def test_teleport_preserves_entanglement():
    # teleport half of an entangled pair; the 2-qubit state survives
    pair = np.array([0.6, 0, 0, 0.8], dtype=complex)
    out = relay(pair[None], 1, 1, LoccTranscript())
    assert pure_trace_distance(pair, out[0]) < 1e-12


def test_relay_capacity_guard():
    # a register whose Bell-extended form would pass the statevector guard
    big = np.zeros((1, 2 ** (MAX_STATEVECTOR_QUBITS - 1)))
    with pytest.raises(ValueError, match="register would exceed"):
        relay(big, 0, 1, LoccTranscript())


# --- the stacked hop kernel against the per-branch oracle -----------------------

def relay_stack(rng, m, batch, pair_amps=BELL):
    """`batch` random m-qubit registers, each with a pair appended: relay's
    layout."""
    return np.array([np.kron(random_amplitudes(rng, m), pair_amps) for _ in range(batch)])


@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kernel_matches_per_branch_oracle(m, batch):
    rng = np.random.default_rng(100 * m + batch)
    for _ in range(5):
        rows, source = relay_stack(rng, m, batch), int(rng.integers(m))
        tables = _hop_tables(m, source)
        branches = np.empty((batch, 4, 2**m), dtype=complex)
        probs = _hop(rows, tables, branches)
        _check_hops(rows[None], branches[None], tables)
        for row in range(batch):
            oracle = teleport_branches(rows[row], source, (m, m + 1))
            for (m1, m2), (p, reduced) in oracle.items():
                assert abs(probs[row, 2 * m1 + m2] - p) <= 1e-12
                assert np.max(np.abs(branches[row, 2 * m1 + m2] - reduced)) <= 1e-12


def test_kernel_rejects_a_malformed_pair_in_any_row():
    rng = np.random.default_rng(3)
    rows = relay_stack(rng, 2, 3)
    rows[1] = relay_stack(rng, 2, 1, pair_amps=np.array([1, 0, 0, 0], dtype=complex))[0]
    tables = _hop_tables(2, 1)
    branches = np.empty((3, 4, 4), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        _hop(rows, tables, branches)
    with pytest.raises(ValueError, match="malformed Bell pair"):
        _check_hops(rows[None], branches[None], tables)


def test_kernel_rejects_branches_that_disagree():
    # a pair 1e-6 off (|00>+|11>)/sqrt(2) passes the 1e-10 Bell-pair check
    # (its weight is off by ~5e-13) but leaves the branches ~1e-6 apart
    rng = np.random.default_rng(4)
    skewed = np.array([1, 1e-6, 0, 1], dtype=complex)
    rows = relay_stack(rng, 2, 3, pair_amps=skewed / np.linalg.norm(skewed))
    tables = _hop_tables(2, 0)
    branches = np.empty((3, 4, 4), dtype=complex)
    _hop(rows, tables, branches)
    with pytest.raises(AssertionError, match="branches disagree"):
        _check_hops(rows[None], branches[None], tables)


# --- relays -------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 3]),
    site=st.integers(0, 2),
    hops=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    sampled=st.booleans(),
)
def test_relay_identity_property(n, site, hops, seed, sampled):
    # any register comes back from `hops` relays of any of its qubits,
    # whichever branch each hop keeps
    rng = np.random.default_rng(seed)
    logical = site % n
    original = random_amplitudes(rng, n)
    transcript = LoccTranscript()
    rows = relay(original[None], logical, hops, transcript, rng=rng if sampled else None)
    assert pure_trace_distance(original, rows[0]) <= 1e-10
    assert transcript.bit_count() == 2 * hops


def test_relay_hop_keeps_each_row():
    rng = np.random.default_rng(8)
    rows = np.array([random_amplitudes(rng, 3) for _ in range(4)])
    out = relay(rows, 1, 1, LoccTranscript(), rng=rng, drawn=2)
    assert out.shape == rows.shape
    for before, after in zip(rows, out):
        assert pure_trace_distance(before, after) < 1e-12


@pytest.mark.parametrize("hops", [1, 5])
def test_relay_identity_panel(hops):
    assert relay_identity_check(hops, panel_size=40) <= 1e-12


def test_relay_hop_register_shape():
    state = random_qubit()
    out = relay(state[None], 0, 1, LoccTranscript())
    assert out.shape == (1, 2)
    assert pure_trace_distance(out[0], state) < 1e-12


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("hops", [1, HOP_BLOCK - 1, HOP_BLOCK, HOP_BLOCK + 1, 2 * HOP_BLOCK + 1])
def test_relay_in_one_call_matches_hop_by_hop(hops, dtype, sampled):
    # blocks, batched draws and deferred checks leave every bit as one hop at a time
    rng = np.random.default_rng(hops)
    rows = rng.normal(size=(3, 8)).astype(dtype)
    if dtype is np.complex128:
        rows += 1j * rng.normal(size=rows.shape)
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    streams = [np.random.default_rng(5) if sampled else None for _ in range(2)]
    batched, one_by_one = LoccTranscript(), LoccTranscript()
    got = relay(rows, 1, hops, batched, rng=streams[0], drawn=2)
    want = rows
    for _ in range(hops):
        want = relay(want, 1, 1, one_by_one, rng=streams[1], drawn=2)
    assert got.tobytes() == want.tobytes()
    assert [m.bits for m in batched.messages] == [m.bits for m in one_by_one.messages]
    assert len(batched.messages) == 2 * hops
    nodes = ["charlie"] + [f"relay{i}" for i in range(1, hops)] + ["bob"]
    assert [(m.sender, m.receiver) for m in batched.messages[::2]] == list(zip(nodes, nodes[1:]))


def relayed_block(rng, hops, batch=2, n=2):
    """`hops` stacked hops of a relay of qubit 0 of `batch` random n-qubit
    registers: their Bell-extended registers, branches and tables."""
    tables = _hop_tables(n, 0)
    registers = np.empty((hops, batch, 2 ** (n + 2)), dtype=np.complex128)
    branches = np.empty((hops, batch, 4, 2**n), dtype=np.complex128)
    rows = np.array([random_amplitudes(rng, n) for _ in range(batch)])
    for i in range(hops):
        registers[i] = (rows[:, :, None] * BELL).reshape(batch, -1)
        _hop(registers[i], tables, branches[i])
        rows = branches[i, :, 0].take(tables.home, axis=-1)
    return registers, branches, tables


def test_block_check_rejects_a_malformed_pair_at_any_hop():
    rng = np.random.default_rng(37)
    registers, branches, tables = relayed_block(rng, HOP_BLOCK)
    _check_hops(registers, branches, tables)
    branches[40, 0, 3, 0] += 1e-6
    with pytest.raises(AssertionError, match="branches disagree"):
        _check_hops(registers, branches, tables)
    # the first failing hop names the error
    registers[37, 1] = np.kron(random_amplitudes(rng, 2), [1, 0, 0, 0])
    with pytest.raises(ValueError, match="malformed Bell pair"):
        _check_hops(registers, branches, tables)


def test_relay_checks_the_partial_last_block(monkeypatch):
    # the next-to-last hop, in a last block of five, leaves its branches ~1e-6 apart
    hops, calls = 2 * HOP_BLOCK + 5, []

    def skewed(register, tables, out):
        probs = _hop(register, tables, out)
        calls.append(len(calls))
        if len(calls) == hops - 1:
            out[:, 3, 0] += 1e-6
        return probs

    monkeypatch.setattr("qetsim.teleport._hop", skewed)
    rows = np.array([random_amplitudes(np.random.default_rng(2), 2)])
    transcript = LoccTranscript()
    with pytest.raises(AssertionError, match="branches disagree"):
        relay(rows, 1, hops, transcript)
    assert len(calls) == hops
    # the two checked blocks are logged, the failing one is not
    assert len(transcript.messages) == 4 * HOP_BLOCK


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("norm", [2.0, 0.0])
def test_relay_rejects_unnormalized_rows(norm, sampled):
    rows = norm * np.array([random_amplitudes(np.random.default_rng(6), 2)] * 2)
    rng = np.random.default_rng(1) if sampled else None
    transcript = LoccTranscript()
    with pytest.raises(ValueError, match="malformed Bell pair"):
        relay(rows, 0, 3, transcript, rng=rng)
    assert transcript.messages == []


# --- long-range runs ----------------------------------------------------------

@pytest.mark.parametrize("hops", [1, 3])
def test_longrange_equals_local(hops):
    params = MinimalModelParams(1.0, 1.0)
    record, transcript, delta = run_longrange_qet(params, hops)
    # the record is run_minimal_qet's closed form; delta is the relayed
    # pass rows' largest distance from it
    assert record.as_dict() == run_minimal_qet(params).as_dict()
    assert delta <= 1e-10
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


@pytest.mark.parametrize("h, k", [(MAX_RELAY_FIELD_RATIO, 1.0), (1.0, MAX_RELAY_FIELD_RATIO)])
def test_longrange_at_the_field_ratio_bound(h, k):
    _, _, delta = run_longrange_qet(MinimalModelParams(h, k), 3, seed=1)
    assert delta <= 1e-10


@pytest.mark.parametrize("h, k", [(1.001 * MAX_RELAY_FIELD_RATIO, 1.0), (1.0, 1e6)])
def test_longrange_beyond_the_field_ratio_bound(h, k):
    with pytest.raises(IllConditionedError, match="ill-conditioned"):
        run_longrange_qet(MinimalModelParams(h, k), 1)


def test_longrange_bad_hops():
    with pytest.raises(ValueError):
        run_longrange_qet(MinimalModelParams(1.0, 1.0), 0)
