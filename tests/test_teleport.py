import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import pure_trace_distance, relay_identity_check, teleport_branches

from qetsim.model import IllConditionedError, MinimalModelParams, star_model
from qetsim.ops import MAX_STATEVECTOR_QUBITS
from qetsim.protocol import exact_record, run_protocol
from qetsim.teleport import (
    BELL,
    HOP_BLOCK,
    MAX_RELAY_FIELD_RATIO,
    TRANSCRIPT_CHUNK_HOPS,
    LoccTranscript,
    _check_hops,
    _hop,
    _hop_tables,
    relay,
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
    out, kept = relay(panel, 0, 1)
    assert np.max(np.abs(out - panel)) <= 1e-12
    assert kept is None


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
        kernel = _hop(amps[None], _hop_tables(1, 0, 1), np.empty((1, 4, 2), dtype=complex))
        assert np.max(np.abs(kernel - 0.25)) <= 1e-12


def test_teleport_outcomes_uniform():
    # Born rule: over 800 sampled hops of one qubit, each correction pattern
    # appears with probability 1/4, and the qubit comes back unchanged
    state = random_qubit()
    n = 800
    out, kept = relay(state[None], 0, n, rng=np.random.default_rng(5))
    assert kept.shape == (n,)
    sigma = np.sqrt(n * 0.25 * 0.75)
    for pattern in range(4):  # 2 * m1 + m2
        assert abs(np.count_nonzero(kept == pattern) - n / 4) < 5 * sigma, pattern
    assert pure_trace_distance(state, out[0]) <= 1e-10


def test_teleport_preserves_entanglement():
    # teleport half of an entangled pair; the 2-qubit state survives
    pair = np.array([0.6, 0, 0, 0.8], dtype=complex)
    out, _ = relay(pair[None], 1, 1)
    assert pure_trace_distance(pair, out[0]) < 1e-12


def test_relay_capacity_guard():
    # a register whose Bell-extended form would pass the statevector guard
    big = np.zeros((1, 2 ** (MAX_STATEVECTOR_QUBITS - 1)))
    with pytest.raises(ValueError, match="register would exceed"):
        relay(big, 0, 1)


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
        tables = _hop_tables(m, source, batch)
        branches = np.empty((batch, 4, 2**m), dtype=complex)
        probs = _hop(rows, tables, branches)
        _check_hops(rows[None], branches[None], tables)
        unit = branches / np.sqrt(probs)[..., None]
        for row in range(batch):
            oracle = teleport_branches(rows[row], source, (m, m + 1))
            for (m1, m2), (p, reduced) in oracle.items():
                # the kernel puts pair[1], last in the oracle's order, at the source's site
                home = np.moveaxis(reduced.reshape((2,) * m), -1, source).reshape(-1)
                assert abs(probs[row, 2 * m1 + m2] - p) <= 1e-12
                assert np.max(np.abs(unit[row, 2 * m1 + m2] - home)) <= 1e-12


def test_kernel_rejects_a_malformed_pair_in_any_row():
    rng = np.random.default_rng(3)
    rows = relay_stack(rng, 2, 3)
    rows[1] = relay_stack(rng, 2, 1, pair_amps=np.array([1, 0, 0, 0], dtype=complex))[0]
    tables = _hop_tables(2, 1, 3)
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
    tables = _hop_tables(2, 0, 3)
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
    rows, kept = relay(original[None], logical, hops, rng=rng if sampled else None)
    assert pure_trace_distance(original, rows[0]) <= 1e-10
    assert kept.shape == (hops,) if sampled else kept is None


def test_relay_hop_keeps_each_row():
    rng = np.random.default_rng(8)
    rows = np.array([random_amplitudes(rng, 3) for _ in range(4)])
    out, _ = relay(rows, 1, 1, rng=rng, drawn=2)
    assert out.shape == rows.shape
    for before, after in zip(rows, out):
        assert pure_trace_distance(before, after) < 1e-12


@pytest.mark.parametrize("hops", [1, 5])
def test_relay_identity_panel(hops):
    assert relay_identity_check(hops, panel_size=40) <= 1e-12


def test_relay_hop_register_shape():
    state = random_qubit()
    out, _ = relay(state[None], 0, 1)
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
    got, kept = relay(rows, 1, hops, rng=streams[0], drawn=2)
    want, one_by_one = rows, []
    for _ in range(hops):
        want, bits = relay(want, 1, 1, rng=streams[1], drawn=2)
        one_by_one.append(bits)
    assert got.tobytes() == want.tobytes()
    if sampled:
        assert kept.dtype == np.uint8 and kept.tobytes() == np.concatenate(one_by_one).tobytes()
    else:
        assert kept is None and one_by_one == [None] * hops


def relayed_block(rng, hops, batch=2, n=2):
    """`hops` stacked hops of a relay of qubit 0 of `batch` random n-qubit
    registers: their Bell-extended registers, branches and tables."""
    tables = _hop_tables(n, 0, batch)
    registers = np.empty((hops, batch, 2 ** (n + 2)), dtype=np.complex128)
    branches = np.empty((hops, batch, 4, 2**n), dtype=np.complex128)
    rows = np.array([random_amplitudes(rng, n) for _ in range(batch)])
    for i in range(hops):
        registers[i] = (rows[:, :, None] * BELL).reshape(batch, -1)
        probs = _hop(registers[i], tables, branches[i])
        rows = branches[i, :, 0] / np.sqrt(probs[:, :1])
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
    with pytest.raises(AssertionError, match="branches disagree"):
        relay(rows, 1, hops)
    assert len(calls) == hops


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("norm", [2.0, 0.0])
def test_relay_rejects_unnormalized_rows(norm, sampled):
    rows = norm * np.array([random_amplitudes(np.random.default_rng(6), 2)] * 2)
    rng = np.random.default_rng(1) if sampled else None
    with pytest.raises(ValueError, match="malformed Bell pair"):
        relay(rows, 0, 3, rng=rng)


@pytest.mark.parametrize("sampled", [False, True])
def test_relay_rejects_a_nan_row(sampled):
    # every comparison with nan is False, so both checks test "not within"
    rows = np.array([[np.nan, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5]], dtype=complex)
    rng = random.Random(1) if sampled else None
    with pytest.raises(ValueError, match="malformed Bell pair"):
        relay(rows, 1, 3, rng=rng)


def test_block_check_rejects_a_nan_branch():
    registers, branches, tables = relayed_block(np.random.default_rng(38), HOP_BLOCK)
    branches[40, 0, 3, 0] = np.nan
    with pytest.raises(AssertionError, match="branches disagree"):
        _check_hops(registers, branches, tables)


# --- long-range runs ----------------------------------------------------------

@pytest.mark.parametrize("hops", [1, 3])
def test_longrange_equals_local(hops):
    params = MinimalModelParams(1.0, 1.0)
    record, transcript, delta = run_longrange_qet(params, hops)
    # the record is exact_record's closed form; delta is the relayed
    # pass rows' largest distance from it
    assert record.as_dict() == exact_record(star_model(params), (1,)).as_dict()
    assert delta <= 1e-10
    lines = "".join(transcript.serialize()).splitlines()
    assert len(lines) == 1 + 2 * hops
    assert transcript.bit_count() == 1 + 2 * hops
    assert lines[0].split()[3] == "mu-broadcast"


def test_longrange_seeded_transcript_is_concrete_and_deterministic():
    params = MinimalModelParams(2.0, 1.0)
    _, t1, _ = run_longrange_qet(params, 2, seed=9)
    _, t2, _ = run_longrange_qet(params, 2, seed=9)
    text = "".join(t1.serialize())
    assert text == "".join(t2.serialize())
    assert "x" not in text
    assert t1.bit_count() == 1 + 2 * 2


def test_seeded_transcript_draws_from_the_stdlib_stream():
    # mu by the first uniform of random.Random(seed), then each hop's m1 and
    # m2 by the next two; every teleport branch has probability 1/4
    params = MinimalModelParams(1.0, 1.0)
    fed = run_protocol(star_model(params), (1,))[:, 0]
    stream = random.Random(11)
    mu = int(stream.random() >= np.sum(fed[0] ** 2))
    bits = [int(stream.random() >= 0.5) for _ in range(2 * 40)]
    _, transcript, _ = run_longrange_qet(params, 40, seed=11)
    assert transcript.mu == mu
    assert transcript.branches.tolist() == [2 * m1 + m2 for m1, m2 in zip(bits[::2], bits[1::2])]


def test_transcript_serialization_format():
    _, transcript, _ = run_longrange_qet(MinimalModelParams(1.0, 1.0), 2)
    lines = "".join(transcript.serialize()).splitlines()
    assert lines[0] == "0 alice all mu-broadcast x"
    assert lines[1].startswith("1 charlie ")
    assert all(len(line.split()) == 5 for line in lines)


def test_transcript_names_every_hop_and_bit():
    sampled = LoccTranscript(3, 1, np.array([0, 3, 2], dtype=np.uint8))
    assert "".join(sampled.serialize()) == (
        "0 alice all mu-broadcast 1\n"
        "1 charlie relay1 teleport-corrections 0\n"
        "2 charlie relay1 teleport-corrections 0\n"
        "3 relay1 relay2 teleport-corrections 1\n"
        "4 relay1 relay2 teleport-corrections 1\n"
        "5 relay2 bob teleport-corrections 1\n"
        "6 relay2 bob teleport-corrections 0\n"
    )
    assert "".join(LoccTranscript(1, None, None).serialize()) == (
        "0 alice all mu-broadcast x\n"
        "1 charlie bob teleport-corrections x\n"
        "2 charlie bob teleport-corrections x\n"
    )


def test_transcript_renders_in_chunks_of_hops():
    hops = TRANSCRIPT_CHUNK_HOPS + 1
    branches = (np.arange(hops) % 4).astype(np.uint8)
    chunks = list(LoccTranscript(hops, 0, branches).serialize())
    # the mu line, one full chunk of hops, then the last hop
    assert [chunk.count("\n") for chunk in chunks] == [1, 2 * TRANSCRIPT_CHUNK_HOPS, 2]
    last = TRANSCRIPT_CHUNK_HOPS
    assert chunks[1].splitlines()[-1] == (
        f"{2 * last} relay{last - 1} relay{last} teleport-corrections {(last - 1) % 4 & 1}"
    )
    assert chunks[2] == (
        f"{2 * last + 1} relay{last} bob teleport-corrections {last % 4 >> 1}\n"
        f"{2 * last + 2} relay{last} bob teleport-corrections {last % 4 & 1}\n"
    )


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
